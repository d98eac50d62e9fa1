"""Tests of the benchmark itself: wrapper coverage, time accounting,
exact counts, recorded digests and the no-sources failure.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer, resolve, umm_modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# the layer (or layers) whose self time should lead each workload
LEADERS = {
    "merge-ties": {"merge_core.trim_s"},
    "search-toy": {"merge_core", "tensor_store"},
    "align-long": {"token_align.align_s"},
    "fuse-many": {"token_align.project_s"},
}

# counts fixed by the workload sizes, so equal for every seed (saved bytes
# are not: fused containers record the gold ids as decimal text)
SIZE_COUNTS = (
    "tensor_store.load_calls", "tensor_store.load_mb", "tensor_store.save_calls",
    "merge_core.merge_calls", "merge_core.params_merged",
    "cmaes.generations", "evo_search.candidates", "token_align.align_calls",
    "token_align.dp_cells", "token_align.project_calls",
)

# one traced count per workload that its manifest fixes in advance
IMPLIED_COUNTS = {
    "merge-ties": lambda m: ("merge_core.params_merged", m["items"]),
    "search-toy": lambda m: ("evo_search.candidates", m["items"]),
    "align-long": lambda m: ("token_align.dp_cells", m["sizes"]["dp_cells"]),
    "fuse-many": lambda m: ("token_align.project_calls", m["items"]),
}


def test_tracer_rebinds_every_binding_and_restores_them():
    import umm.cli  # noqa: F401  (imports every module the commands bind)

    originals = [resolve(target) for target in TARGETS]
    tracer = Tracer()
    with tracer:
        patches = tracer.patches
        for owner, name, original in originals:
            if owner is not None:
                assert owner.__dict__[name].__wrapped__ is original
            for module in umm_modules():
                for attr, value in vars(module).items():
                    assert value is not original, f"{module.__name__}.{attr} is unwrapped"
        rebound = {(owner.__name__, name) for owner, name, _ in patches}
        for binding in [("umm.cli", "merge"), ("umm.cli", "load_checkpoint"),
                        ("umm.evo_search", "save_checkpoint"), ("umm.evo_search", "merge"),
                        ("umm.distro_fusion", "save_checkpoint"),
                        ("umm.cli", "project_distribution"), ("umm.cli", "mince_fuse")]:
            assert binding in rebound
    assert tracer.patches == []
    for owner, name, original in patches:
        assert vars(owner)[name] is original


def _traced_passes(manifest, expected=None):
    tracer = Tracer()
    return [worker.run_pass(manifest, tracer, expected) for _ in range(2)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_accounting_counts_and_seeds(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("UMM_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    seed = EXPECTED["seed"]
    manifest = inputs.generate(workload, seed, "inputs")
    expected = EXPECTED["digests"][workload]
    plain = worker.run_pass(manifest, None, expected)
    traced = _traced_passes(manifest, expected)
    for record in [plain, *traced]:
        assert record["errors"] == []
        assert record["digest"] == expected
    for record in traced:
        # layer self times plus the command's own time cover the pass
        assert sum(record["times"].values()) == pytest.approx(record["traced_s"], rel=1e-9)
        assert record["wall_s"] >= record["traced_s"]
    # counts repeat exactly and match what the inputs imply
    assert traced[0]["counts"] == traced[1]["counts"]
    name, implied = IMPLIED_COUNTS[workload](manifest)
    assert traced[0]["counts"][name] == implied

    times = traced[0]["times"]
    by_module = {}
    for name, value in times.items():
        by_module[name.split(".")[0]] = by_module.get(name.split(".")[0], 0.0) + value
    leaders = LEADERS[workload]
    if all("." in name for name in leaders):
        assert max(times, key=times.get) in leaders
    else:
        assert set(sorted(by_module, key=by_module.get)[-len(leaders):]) == leaders

    # every listed metric is produced
    records = [dict(r, ref_s=0.01) for r in (plain, *traced)]
    layer = run.per_layer(records, workload)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layer)
    e2e = run.end_to_end(records, manifest, 1.0, 1024)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert all(e2e[m["name"]] > 0 for m in SPEC["end_to_end"])

    # a second seed keeps the sizes and changes only the values
    other = inputs.generate(workload, seed + 1, "inputs-other")
    assert {k: other[k] for k in ("argv", "items", "sizes")} == \
           {k: manifest[k] for k in ("argv", "items", "sizes")}
    first_files = sorted(p.name for p in Path("inputs").iterdir())
    assert first_files == sorted(p.name for p in Path("inputs-other").iterdir())
    changed = [name for name in first_files if name != "manifest.json"
               and (Path("inputs") / name).read_bytes() != (Path("inputs-other") / name).read_bytes()]
    assert changed
    shutil.rmtree("inputs")
    Path("inputs-other").rename("inputs")
    again = worker.run_pass(other, Tracer())
    assert again["errors"] == []
    assert again["digest"] != expected
    for name in SIZE_COUNTS:
        assert again["counts"][name] == traced[0]["counts"][name], name


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "align-long", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
