"""Every public name in src/umm must be reached by something that runs.

A public module-level function or class, or a public method, counts as
reached when its name appears as a Name, an Attribute or an import alias
in the library itself, the benchmark, the acceptance tests, their
fixtures or the reference implementations.  Unit tests do not count: a
name only they use is code kept alive for its own tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "umm").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
    ROOT / "tests" / "reference_impls.py",
]


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
    return used


def _public_definitions() -> list:
    """(qualified name, bare name) of each public def and class."""
    found = []
    for path in LIBRARY:
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((f"{path.stem}.{node.name}.{item.name}", item.name))
    return found


def test_every_public_name_is_reached():
    used = _used_names()
    definitions = _public_definitions()
    assert definitions, "no public definitions found under src/umm"
    unreached = [qualified for qualified, name in definitions if name not in used]
    assert not unreached, f"public names nothing reaches: {unreached}"
