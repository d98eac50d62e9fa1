"""Outside-in benchmark of umm: merge, search, alignment and fusion.

Run from the root of a checkout:

    python3 bench/run.py --workload merge-ties --seed 0 --seconds 20 --trace 0

One run:

1. generates the workload's inputs from ``--seed``, several times, each
   in a fresh process, and reports the median generation time as
   ``setup_s``;
2. runs the timed passes in one more fresh process (``worker.py``), so
   its peak RSS holds the passes and nothing else, with
   ``UMM_CACHE_DIR`` removed from its environment;
3. prints one JSON line: whether every pass was correct, passes
   attempted and failed, and the metrics ``BENCHMARK.json`` lists,
   its ``end_to_end`` ones with ``--trace 0`` and its ``per_layer``
   ones with ``--trace 1``.

``items_per_s`` and ``setup_s`` are scaled to nominal host speed by the
workload's reference kernel, timed beside each pass and each set-up
(see ``reference.py``); ``host.speed`` in the traced run gives the
factor, so raw figures are the reported ones times it (throughput) or
divided by it (set-up).

Everything is written under ``.bench_work/`` in the checkout and
removed at the end.  Without the ``umm`` sources next to this
directory the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS  # noqa: E402
from reference import host_speed  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0


def _median(values):
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(passes: list, manifest: dict, setup_s: float, peak_kb: int) -> dict:
    """Throughput is scaled to nominal host speed (see reference.py)."""
    ok = [p for p in passes if not p["errors"]]
    speed = host_speed(manifest["workload"], [p["ref_s"] for p in passes])
    return {
        "items_per_s": _median([manifest["items"] / p["wall_s"] for p in ok]) / speed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
        "disk_mb": _median([p["disk_bytes"] / 2**20 for p in ok]),
        "pass_ok_ratio": len(ok) / len(passes),
    }


def per_layer(passes: list, workload: str) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: _median([p["times"][name] for p in traced]) for name in traced[0]["times"]}
    counts = traced[0]["counts"]
    out.update(counts)
    out["evo_search.cache_hit_ratio"] = ratio(counts["evo_search.cache_hits"],
                                              counts["evo_search.candidates"])
    out["distro_fusion.picked_pivot_ratio"] = ratio(counts["distro_fusion.picked_pivot"],
                                                    counts["distro_fusion.fuse_calls"])
    out["cli.cpu_s"] = _median([p["cpu_s"] for p in plain])
    out["trace.overhead_ratio"] = ratio(_median([p["wall_s"] for p in traced]),
                                        _median([p["wall_s"] for p in plain]))
    out["host.speed"] = host_speed(workload, [p["ref_s"] for p in passes])
    return out


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="umm outside-in benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "umm" / "cli.py").is_file():
        print(f"no umm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("UMM_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", "inputs"],
                cwd=work, stdout=subprocess.PIPE, text=True, check=True,
                timeout=_remaining(start),
            )
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        manifest = json.loads((work / "inputs" / "manifest.json").read_text())

        command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed == expected["seed"] and args.workload in expected["digests"]:
            command += ["--expected", expected["digests"][args.workload]]
        proc = subprocess.run(command, cwd=work, env=env, stdout=subprocess.PIPE,
                              text=True, check=True, timeout=_remaining(start))
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError,
            ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    passes = report["passes"]
    failed = sum(bool(p["errors"]) for p in passes)
    if args.trace:
        values, listed = per_layer(passes, args.workload), spec["per_layer"]
    else:
        setup_s = _median([s["generate_s"] for s in setups]) * host_speed(
            args.workload, [s["ref_s"] for s in setups])
        values = end_to_end(passes, manifest, setup_s, report["peak_rss_kb"])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
