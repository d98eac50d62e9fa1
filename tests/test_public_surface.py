"""Every public name and every private module-level name in src/umm must
be reached by something that runs, only ``tensor_store.publish`` writes a
file, each kind of input file is opened by one call, only the config
reader builds a search config, only the token reader builds a token
sequence and only ``compute_task_vector`` a task vector in the library,
no number a JSON number reader returned is checked for finiteness
again, no evaluator reads a checkpoint, no class defines a ``validate``
method, no context manager is entered by hand,
every JSON decode catches too deep a nesting, and importing the command
line leaves scipy unloaded.

A module-level function or class, public or private, or a public method,
counts as reached when its name appears as a Name, an Attribute or an
import alias in the library itself or the benchmark, or as the function
or method a ``Target(...)`` of the benchmark's tracer wraps.  Tests do
not count, the acceptance tests, their fixtures and the reference
implementations included: a name only they use is code kept alive for
its tests, and belongs beside them or nowhere.
"""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "umm").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names() -> set:
    used = set()
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Call) and _callee(node) == "Target":
                # Target(module, "function" or "Class.method", layer, ...)
                used.update(node.args[1].value.split("."))
    return used


def _definitions(private: bool) -> list:
    """(qualified name, bare name) of each public def and class with its
    public methods, or of each private module-level def and class."""
    found = []
    for path in LIBRARY:
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private:
                continue
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef) and not private:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((f"{path.stem}.{node.name}.{item.name}", item.name))
    return found


def test_every_public_name_is_reached():
    used = _used_names()
    definitions = _definitions(private=False)
    assert definitions, "no public definitions found under src/umm"
    unreached = [qualified for qualified, name in definitions if name not in used]
    assert not unreached, f"public names nothing reaches: {unreached}"


def test_every_private_module_level_name_is_reached():
    """A private helper that only tests call is dead code: move it into
    the tests that call it, or delete it."""
    used = _used_names()
    definitions = _definitions(private=True)
    assert definitions, "no private definitions found under src/umm"
    unreached = [qualified for qualified, name in definitions if name not in used]
    assert not unreached, f"private names only unit tests reach: {unreached}"


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` renames, creates or writes a file: ``os.replace``,
    ``os.rename``, ``os.open``, ``Path.write_text``/``write_bytes``, or an
    ``open`` whose mode is not a constant without w, x, a or +."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = getattr(func, "value", None)
    if name in ("replace", "rename", "open") and isinstance(owner, ast.Name) and owner.id == "os":
        return True
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) and io.open(file, mode), but path.open(mode)
    plain = not isinstance(func, ast.Attribute) or (isinstance(owner, ast.Name) and owner.id == "io")
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if plain else call.args[:1]
    mode = modes[0] if modes else ast.Constant("r")
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def test_only_the_publish_path_writes_files():
    outside, inside = [], []
    for path in LIBRARY:
        tree = _parse(path)
        allowed = set()
        if path.stem == "tensor_store":
            publish = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "publish")
            allowed = {id(node) for node in ast.walk(publish)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _writes(node):
                where = f"{path.name}:{node.lineno}"
                (inside if id(node) in allowed else outside).append(where)
    # the publish path itself is seen: it creates its temp file and renames it
    assert len(inside) == 2, inside
    assert not outside, f"files written outside tensor_store.publish: {outside}"


def _reads(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for reading: ``Path.read_text`` or
    ``read_bytes``, or an ``open``, ``io.open`` or ``Path.open`` that
    does not write."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("read_text", "read_bytes") or (name == "open" and not _writes(call))


def _scoped_calls(tree, module: str) -> list:
    """(qualified name of the innermost enclosing def or class, call) for
    each call in ``tree``; module-level calls carry the module name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                found.append((scope, child))
            visit(child, inner)

    visit(tree, module)
    return found


def test_each_input_kind_is_opened_by_one_call():
    """Every .json input is opened in ``jsonl.read_json``, every JSON-lines
    input in ``jsonl.iter_jsonl`` and every container in
    ``CheckpointReader.__init__``, once each, so JSON decoding stays behind
    ``umm.jsonl`` and container decoding behind ``umm.tensor_store``."""
    openers = collections.Counter(
        scope for path in LIBRARY for scope, call in _scoped_calls(_parse(path), path.stem)
        if _reads(call)
    )
    assert openers == {"jsonl.read_json": 1, "jsonl.iter_jsonl": 1,
                       "tensor_store.CheckpointReader.__init__": 1}, openers


def test_only_the_config_reader_builds_a_search_config():
    """``evo_search.config_from_json_obj`` types, defaults and checks each
    field, so ``run_search`` trusts its config only while nothing else in
    the library, the tests or the benchmark calls ``SearchConfig(...)``."""
    paths = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    builders = collections.Counter(
        scope for path in paths for scope, call in _scoped_calls(_parse(path), path.stem)
        if _callee(call) == "SearchConfig"
    )
    assert builders == {"evo_search.config_from_json_obj": 1}, builders


def test_only_the_token_reader_builds_a_token_seq():
    """``token_align.token_seq_from_json_obj`` checks each token id against
    its vocabulary, so the library counts and projects ids unchecked only
    while nothing else in it calls ``TokenSeq(...)``."""
    builders = collections.Counter(
        scope for path in LIBRARY for scope, call in _scoped_calls(_parse(path), path.stem)
        if _callee(call) == "TokenSeq"
    )
    assert builders == {"token_align.token_seq_from_json_obj": 1}, builders


def test_only_compute_task_vector_builds_a_task_vector():
    """``merge_core.compute_task_vector`` checks a fine-tuned source
    against its base, so every task vector the library makes is checked
    only while nothing else in it calls ``TaskVector(...)``."""
    builders = collections.Counter(
        scope for path in LIBRARY for scope, call in _scoped_calls(_parse(path), path.stem)
        if _callee(call) == "TaskVector"
    )
    assert builders == {"merge_core.compute_task_vector": 1}, builders


def test_no_evaluator_reads_a_checkpoint():
    """An evaluator is handed the merged checkpoint and the path it was
    written to, so a builtin scores the checkpoint in memory: no
    ``evaluate`` method under ``src/umm`` reads a checkpoint."""
    methods = {f"{path.stem}.{cls.name}": method for path in LIBRARY
               for cls in ast.walk(_parse(path)) if isinstance(cls, ast.ClassDef)
               for method in cls.body if getattr(method, "name", None) == "evaluate"}
    assert {"evo_search.ExternalEvaluator", "evo_search.L2ToTargetEvaluator",
            "evo_search.ToyRegressionEvaluator"} <= set(methods), sorted(methods)
    reads = [f"{owner}.evaluate:{call.lineno}" for owner, method in methods.items()
             for call in ast.walk(method) if isinstance(call, ast.Call)
             and _callee(call) in ("load_checkpoint", "CheckpointReader")]
    assert not reads, f"evaluators that read a checkpoint: {reads}"


def test_no_class_defines_a_validate_method():
    """A value is checked by the reader that makes it, so nothing checks
    it again later: no class under ``src/umm`` defines ``validate``."""
    found = [f"{path.stem}.{node.name}" for path in LIBRARY for node in ast.walk(_parse(path))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and item.name == "validate" for item in node.body)]
    assert found == [], found


def _callee(node) -> str:
    """The bare name a call calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", None) or getattr(func, "id", None)


def test_no_number_a_reader_returned_is_checked_for_finiteness_again():
    """``want_number``, ``want_numbers`` and ``want_pairs`` return finite
    floats, so no ``math.isfinite`` or ``np.isfinite`` call takes one of
    those calls, or a name its function binds, by assignment or by a
    ``for`` loop, from such a call or from such a name."""
    readers = {"want_number", "want_numbers", "want_pairs"}
    again = set()  # a nested def is walked with its outer one too
    for path in LIBRARY:
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = set()

            def from_reader(expr) -> bool:
                return any(isinstance(n, ast.Call) and _callee(n) in readers
                           or isinstance(n, ast.Name) and n.id in read for n in ast.walk(expr))

            bindings = [(node.targets, node.value) for node in ast.walk(func)
                        if isinstance(node, ast.Assign)]
            bindings += [([node.target], node.iter) for node in ast.walk(func)
                         if isinstance(node, ast.For)]
            grown = True
            while grown:  # a name bound from a read name is read too
                before = len(read)
                read |= {n.id for targets, value in bindings if from_reader(value)
                         for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)}
                grown = len(read) > before
            again |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Call) and _callee(node) == "isfinite"
                      and any(from_reader(arg) for arg in node.args)}
    assert not again, f"finiteness of a number reader's value checked again: {sorted(again)}"


def test_context_managers_are_entered_only_by_with():
    """No ``.__enter__()`` or ``.__exit__()`` call by hand: a ``with`` block
    or an ``ExitStack`` enters and leaves every context manager, so an
    error between the two cannot skip the exit."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("__enter__", "__exit__")
    ]
    assert not calls, f"context managers entered or left by hand: {calls}"


def test_no_library_code_reads_the_environment():
    """Every input comes from argv or from a file the user names: nothing
    under src/umm names ``os.environ``, ``os.environb`` or ``os.getenv``,
    as an attribute, a bare name or an imported name."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(_parse(path))
        if ({getattr(node, "attr", None), getattr(node, "id", None)}
            | ({node.name.split(".")[-1]} if isinstance(node, ast.alias) else set()))
        & {"environ", "environb", "getenv"}
    ]
    assert not reads, f"environment reads under src/umm: {reads}"


def _names(node) -> set:
    """The bare names an ``except`` clause's type expression lists."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def test_every_json_decode_catches_recursion_error():
    """Each ``json.load``/``json.loads`` call sits in the body of a ``try``
    with a handler naming RecursionError, which the decoder raises on
    deep nesting, so too deep an input ends in one error line."""
    uncaught, seen = [], 0
    for path in LIBRARY:
        tree = _parse(path)
        guarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Try) and any(
                    "RecursionError" in _names(h.type) for h in node.handlers):
                guarded |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr in ("load", "loads")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                seen += 1
                if id(node) not in guarded:
                    uncaught.append(f"{path.name}:{node.lineno}")
    assert seen, "no json.load or json.loads call found under src/umm"
    assert not uncaught, f"JSON decodes that let RecursionError through: {uncaught}"


def test_importing_the_command_line_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, umm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
