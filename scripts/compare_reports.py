#!/usr/bin/env python3
"""Compares bench reports on their deterministic keys.

    python3 scripts/compare_reports.py BASE_DIR OTHER_DIR

Every BENCH_*.json in OTHER_DIR is compared with the same-named report in
BASE_DIR. Simulated results are exact for a seed, so two runs of one bench
that differ only in simulator mode (--mode=serial vs the event-driven
default) must agree on every key except the ones that measure the host:
wall-clock times, per-second rates, speedups and the Silo software
baseline. Those are dropped before comparing.

Exit codes: 0 = every report matches, 1 = a difference, a missing twin or
no reports at all, 2 = usage error. Stdlib only.
"""

import json
import sys
from pathlib import Path


def host_key(key):
    """True for a key whose value depends on the host, not the model."""
    return (key == "wall_seconds" or key.endswith("per_second") or
            key.startswith("speedup") or key.lower() == "silo")


def flatten(tree, prefix, out):
    if isinstance(tree, dict):
        for key, value in tree.items():
            if not host_key(key):
                flatten(value, f"{prefix}/{key}", out)
    else:
        out[prefix] = tree


def deterministic_keys(report):
    """{"<label>:<path>": value} over every run's deterministic leaves."""
    out = {}
    for run in report.get("runs", []):
        flatten(run.get("stats", {}), run.get("label", "") + ":", out)
    return out


def compare(base_path, other_path):
    """Returns a list of difference lines (empty when the reports match)."""
    base = deterministic_keys(json.loads(base_path.read_text()))
    other = deterministic_keys(json.loads(other_path.read_text()))
    diffs = []
    for key in sorted(base.keys() | other.keys()):
        if base.get(key, "<absent>") != other.get(key, "<absent>"):
            diffs.append(f"  {key}: {base.get(key, '<absent>')} != "
                         f"{other.get(key, '<absent>')}")
    return diffs


def main():
    if len(sys.argv) != 3:
        print("usage: compare_reports.py BASE_DIR OTHER_DIR", file=sys.stderr)
        return 2
    base_dir, other_dir = Path(sys.argv[1]), Path(sys.argv[2])
    reports = sorted(other_dir.glob("BENCH_*.json"))
    if not reports:
        print(f"compare_reports: no BENCH_*.json in {other_dir}",
              file=sys.stderr)
        return 1
    failed = False
    for other in reports:
        base = base_dir / other.name
        if not base.exists():
            print(f"{other.name}: no twin in {base_dir}", file=sys.stderr)
            failed = True
            continue
        diffs = compare(base, other)
        if diffs:
            print(f"{other.name}: {len(diffs)} deterministic key(s) differ",
                  file=sys.stderr)
            for line in diffs[:20]:
                print(line, file=sys.stderr)
            failed = True
        else:
            print(f"{other.name}: identical on deterministic keys")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
