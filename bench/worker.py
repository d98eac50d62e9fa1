"""Timed passes of one workload, run in a fresh process.

Run from a directory holding ``inputs/`` (made by ``inputs.py``), with
the ``umm`` sources importable:

    python3 bench/worker.py --workload merge-ties --seconds 20 --trace 0

Every pass calls ``umm.cli.main`` in-process on the generated inputs,
writing into a fresh ``out/`` directory, and is then checked: exit code
0, JSON on stdout, the workload's own output check, and the sha256 of
stdout plus every output file, which must equal the first pass's and,
when given, the expected digest.  Passes run until ``--seconds`` have
gone by.  With ``--trace 1`` untraced and traced passes alternate, so
the two can be compared within one process.

The last stdout line is a JSON object with every pass's record and the
process's peak resident set size.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import kernel_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 4


def output_digest(out_dir: Path, stdout: str) -> tuple:
    """(combined sha256 of stdout and every file, total file bytes)."""
    combined = hashlib.sha256(stdout.encode())
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        combined.update(f"{path.relative_to(out_dir).as_posix()} {hashlib.sha256(data).hexdigest()}\n".encode())
    return combined.hexdigest(), total


# --- per-workload output checks -------------------------------------------------

def _check_merge(manifest: dict, result: dict, out: Path) -> list:
    from umm.tensor_store import load_checkpoint

    merged = load_checkpoint(out / "merged.st")
    shapes = {name: list(t.shape) for name, t in merged.tensors.items()}
    errors = []
    if shapes != manifest["shapes"]:
        errors.append("merged names or shapes differ from the base")
    if result.get("tensors") != len(manifest["shapes"]):
        errors.append(f"stdout reports {result.get('tensors')} tensors")
    return errors


def _check_search(manifest: dict, result: dict, out: Path) -> list:
    sizes = manifest["sizes"]
    errors = []
    if result.get("generations") != sizes["generations"] or result.get("pop_size") != sizes["pop_size"]:
        errors.append(f"ran {result.get('generations')} generations of {result.get('pop_size')}")
    if result.get("evaluations") != 1 + result.get("generations", 0) * result.get("pop_size", 0):
        errors.append(f"evaluations {result.get('evaluations')} != 1 + generations x pop")
    for name in ("best_recipe.json", "history.csv", "search_state.json"):
        if not (out / name).is_file():
            errors.append(f"missing {name}")
    return errors


def _check_align(manifest: dict, result: dict, out: Path) -> list:
    with open(out / "stats.jsonl", encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    errors = []
    if lines != result.get("distinct_mappings"):
        errors.append(f"{lines} stats lines but distinct_mappings {result.get('distinct_mappings')}")
    if result.get("pairs") != manifest["sizes"]["pairs"]:
        errors.append(f"aligned {result.get('pairs')} pairs")
    return errors


def _check_fuse(manifest: dict, result: dict, out: Path) -> list:
    from umm.distro_fusion import load_distribution

    examples = manifest["sizes"]["examples"]
    errors = []
    if result.get("examples") != examples:
        errors.append(f"fused {result.get('examples')} of {examples} examples")
    if result.get("picked_pivot", -1) + result.get("picked_source", -1) != examples:
        errors.append("picked_pivot + picked_source != examples")
    containers = sorted((out / "fused").glob("*.st"))
    if len(containers) != examples:
        errors.append(f"{len(containers)} containers for {examples} examples")
    for path in containers:
        load_distribution(path)
    return errors


CHECKS = {
    "merge-ties": _check_merge,
    "search-toy": _check_search,
    "align-long": _check_align,
    "fuse-many": _check_fuse,
}


# --- one pass ---------------------------------------------------------------------

def run_pass(manifest: dict, tracer: Tracer = None, expected: str = None) -> dict:
    """Run the workload's command once in the current directory and check it.

    With ``tracer`` the command runs as the tracer's root span and the
    record carries the layer self times and exact counts.
    """
    from umm import cli

    argv = ["--log-level", "warning", *manifest["argv"]]
    out = Path("out")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    gc.collect()
    buf = io.StringIO()
    record = {"traced": tracer is not None, "errors": []}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer:
                    code, record["traced_s"] = tracer.run(lambda: cli.main(argv))
    except Exception:  # a crash is a failed pass, not a failed benchmark
        code = None
        record["errors"].append(traceback.format_exc(limit=3))
    record["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime - cpu0
    if tracer is not None:
        record["times"] = tracer.times()
        record["counts"] = tracer.exact_counts()
    stdout = buf.getvalue()
    if code != 0:
        record["errors"].append(f"exit code {code}")
    else:
        try:
            result = json.loads(stdout)
            record["errors"] += CHECKS[manifest["workload"]](manifest, result, out)
        except Exception:  # a malformed output is a failed check
            record["errors"].append(traceback.format_exc(limit=3))
    record["digest"], record["disk_bytes"] = output_digest(out, stdout)
    if expected and record["digest"] != expected:
        record["errors"].append(f"digest {record['digest']} != expected {expected}")
    shutil.rmtree(out, ignore_errors=True)
    return record


def run_passes(manifest: dict, seconds: float, trace: bool, expected: str = None) -> list:
    """Passes until ``seconds`` have elapsed; with ``trace`` every second
    pass is traced.  The workload's reference kernel is timed before
    each pass."""
    import umm.cli  # noqa: F401  (its import stays out of the first pass)

    tracer = Tracer() if trace else None
    records = []
    start = time.perf_counter()
    while len(records) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(records) % 2 == 1
        ref_s = kernel_seconds(manifest["workload"])
        record = run_pass(manifest, tracer if traced else None, expected)
        record["ref_s"] = ref_s
        if records and record["digest"] != records[0]["digest"]:
            record["errors"].append("output digest differs from the first pass")
        if traced:
            first = next((r for r in records if r["traced"]), None)
            if first is not None and first["counts"] != record["counts"]:
                record["errors"].append("exact counts differ from the first traced pass")
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Timed passes of one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=None, help="expected output digest")
    args = parser.parse_args(argv)
    manifest = json.loads(Path("inputs/manifest.json").read_text())
    if manifest["workload"] != args.workload:
        raise SystemExit(f"inputs are for {manifest['workload']}, not {args.workload}")
    records = run_passes(manifest, args.seconds, bool(args.trace), args.expected)
    for record in records:
        for error in record["errors"]:
            print(f"pass failed: {error}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": records, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
