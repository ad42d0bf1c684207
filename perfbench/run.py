#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb_read --seed 1 --seconds 20 --trace 0

The driver is built from source into .bench_build/perfbench (perfbench/
pulls in the repository as a CMake subproject), then run in its own
process. The last line of standard output is one JSON object,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1. A failed output or closure check prints that
line with "correct": false and exits 1. A failed build, a crashed driver or
a missing repository exits non-zero without printing a result.

Other programs reuse build() and run_driver() to read the driver's full
record, which holds every metric the run measured.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
RESULTS_DIR = BUILD_DIR / "results"

# The driver finishes the repetition it is in when the window closes; this
# caps a wedged one well inside the per-run limit.
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once per checkout) and builds the driver; raises on error."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_driver(workload, seed, seconds, trace, gen_delay_us=0.0):
    """Runs the built driver once and returns its full record (a dict)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if gen_delay_us:
        tag += f"-delay{gen_delay_us:g}"
    out = RESULTS_DIR / f"{tag}.json"
    if out.exists():
        out.unlink()
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--trace-out", str(BUILD_DIR / f"trace-{workload}.json")]
    if gen_delay_us:
        cmd += ["--gen-delay-us", str(gen_delay_us)]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if not out.exists():
        raise RuntimeError(f"driver exited {proc.returncode} without a record")
    record = json.loads(out.read_text())
    if proc.returncode != 0 and record.get("correct", False):
        raise RuntimeError(f"driver exited {proc.returncode}")
    return record


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise RuntimeError(f"unknown workload {args.workload}")
        build()
        record = run_driver(args.workload, args.seed, args.seconds,
                            args.trace)
    except (OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if not isinstance(record["metrics"].get(m["name"]), (int, float))]
    if missing:
        log(f"perfbench: driver did not report {', '.join(missing)}")
        return 1
    for err in record["errors"]:
        log(f"perfbench: CHECK FAILED: {err}")
    for m in wanted:
        log(f"  {m['name']:40s} {record['metrics'][m['name']]:.6g} "
            f"{m['unit']}")
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
