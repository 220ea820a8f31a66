"""Every end-to-end metric for all four workloads, as one table.

    python3 perfbench/report.py [--seed N] [--trace]

Runs each workload as `run.py` would, for the `run_seconds` of
BENCHMARK.json, and prints setup_s, wall_s, cpu_s, max_verdict_s,
peak_rss_mb, failed_ratio and verdicts per workload, with units.  --trace
adds a traced run per workload and prints the per-layer metrics with the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    corpus = run.prepare()
    if corpus is None:
        return 2
    seconds = json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    for workload in run.WORKLOADS:
        items = corpus.build(workload, args.seed)
        results[workload] = [run.execute(workload, args.seed, seconds, 0,
                                         items)]
        if args.trace:
            results[workload].append(
                run.execute(workload, args.seed, seconds, 1, items))

    units = dict(run.END_TO_END)
    names = [name for name, _ in run.END_TO_END]
    print("workload  " + "  ".join(f"{n} [{units[n]}]" for n in names)
          + "  failed_ratio  verdicts [count]")
    for workload, (plain, *_) in results.items():
        print(f"{workload:9} " + "  ".join(
            f"{plain.metrics[n]:>{len(n) + len(units[n]) + 3}.4g}" for n in names)
            + f"  {plain.failed_ratio:12.3g}  {plain.attempted:16d}")
    if args.trace:
        print()
        layer_names = list(results["quotient"][1].metrics)
        print(f"{'metric':30} {'unit':6} " + " ".join(
            f"{w:>10}" for w in results))
        for name in layer_names:
            unit = results["quotient"][1].units[name]
            print(f"{name:30} {unit:6} " + " ".join(
                f"{results[w][1].metrics[name]:>10.4g}" for w in results))
    return 0 if all(not r.failures for rs in results.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
