#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py spread [--runs 10] [--workload W ...]
    python3 perfbench/selftest.py guard [--seed 7] [--workload W ...]
    python3 perfbench/selftest.py sensitivity [--seed 7] [--runs 3] [--workload W ...]

spread       runs each workload once per seed (1..runs) and reports, for
             every end-to-end metric, the distance between the first and
             third quartile as a share of the median, against the metric's
             bound in BENCHMARK.json. Modelled metrics vary here only with
             the seed; host metrics also with machine noise.
guard        perturbation guard: a traced and an untraced run of one seed
             must give identical modelled results (every sim_* metric,
             ok_frac and every modelled per-layer counter).
sensitivity  injects a fixed busy-wait into the benchmark's own generator
             wrapper (no program change), sized at SENSITIVITY_FACTOR times
             the host time per transaction of the first undisturbed run.
             Over --runs seeds, each run with and without the delay, the
             median host_txn_per_s must worsen by more than its bound while
             every modelled metric stays identical seed by seed.

Exits 1 when a check fails.
"""
import argparse
import statistics
import sys

import run

# Metrics measured on the host; every other metric is modelled and must
# repeat exactly for a seed.
HOST_METRICS = {
    "host_txn_per_s", "setup_s", "host_peak_rss_mb", "sim.mcycles_per_s",
    "workload.gen_us_per_txn", "trace.host_txn_per_s", "trace.host_overhead",
}

# Expected slowdown of host_txn_per_s is F / (1 + F): 1/3 at F = 0.5, above
# the 0.25 bound by more than the run-to-run spread.
SENSITIVITY_FACTOR = 0.5


def modelled(record):
    return {k: v for k, v in record["metrics"].items()
            if k not in HOST_METRICS}


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative when better)."""
    if metric["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def cmd_spread(spec, args):
    ok = True
    for workload in args.workload:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            rec = run.run_driver(workload, seed, args.seconds, 0)
            ok &= rec["correct"]
            for name in values:
                values[name].append(rec["metrics"][name])
        print(f"{workload}: {args.runs} seeds, {args.seconds} s each")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  over bound/3"
            print(f"  {m['name']:18s} median {med:<14.6g} spread "
                  f"{spread:7.4f} (bound {m['bound']}){flag}")
    return ok


def cmd_guard(spec, args):
    ok = True
    for workload in args.workload:
        plain = run.run_driver(workload, args.seed, args.seconds, 0)
        traced = run.run_driver(workload, args.seed, args.seconds, 1)
        a, b = modelled(plain), modelled(traced)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        same = (plain["modelled_digest"] == traced["modelled_digest"]
                and not diff and plain["correct"] and traced["correct"])
        overhead = traced["metrics"]["trace.host_overhead"]
        print(f"{workload}: traced vs untraced modelled results "
              f"{'identical' if same else 'DIFFER ' + str(diff)}; "
              f"in-process tracing overhead {overhead:+.2%}")
        ok &= same
    return ok


def cmd_sensitivity(spec, args):
    host = next(m for m in spec["end_to_end"] if m["name"] == "host_txn_per_s")
    ok = True
    for workload in args.workload:
        # Seeds alternate which side runs first, so a slow spell of the
        # machine does not land on one side only.
        rates = {False: [], True: []}
        delay_us = None
        for i in range(args.runs):
            seed = args.seed + i
            records = {}
            for delayed in ((False, True) if i % 2 == 0 else (True, False)):
                if delayed:
                    records[True] = run.run_driver(
                        workload, seed, args.seconds, 0,
                        gen_delay_us=round(delay_us, 3))
                else:
                    records[False] = run.run_driver(workload, seed,
                                                    args.seconds, 0)
                    if delay_us is None:
                        delay_us = (SENSITIVITY_FACTOR * 1e6 /
                                    records[False]["metrics"]["host_txn_per_s"])
            base, slow = records[False], records[True]
            same = (base["modelled_digest"] == slow["modelled_digest"]
                    and modelled(base) == modelled(slow))
            ok &= same and base["correct"] and slow["correct"]
            for delayed, rec in records.items():
                rates[delayed].append(rec["metrics"]["host_txn_per_s"])
            print(f"{workload} seed {seed}: host_txn_per_s "
                  f"{base['metrics']['host_txn_per_s']:.6g} -> "
                  f"{slow['metrics']['host_txn_per_s']:.6g}; modelled "
                  f"metrics {'identical' if same else 'CHANGED'}")
        base_med = statistics.median(rates[False])
        slow_med = statistics.median(rates[True])
        drop = worse_by(host, base_med, slow_med)
        caught = drop > host["bound"]
        print(f"{workload}: +{delay_us:.2f} us per generated txn moves the "
              f"median host_txn_per_s {base_med:.6g} -> {slow_med:.6g} "
              f"({drop:+.1%} worse, bound {host['bound']:.0%}: "
              f"{'caught' if caught else 'MISSED'})")
        ok &= caught
    return ok


def main():
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("spread", "guard", "sensitivity"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=None,
                        help="seeds per workload (spread 10, others 3)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    args.workload = args.workload or names
    if args.runs is None:
        args.runs = 10 if args.check == "spread" else 3
    run.build()
    check = {"spread": cmd_spread, "guard": cmd_guard,
             "sensitivity": cmd_sensitivity}[args.check]
    ok = check(spec, args)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
