"""Smoke check of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Runs one small item of each workload untraced and one traced, and expects
no failure; then runs an item whose expected answer was deliberately
altered and expects it to be counted in failed_ratio.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import sys

import run

SMALL = {
    "quotient": "quotient rel2 T",
    "tensor": "tensor-verify chain2",
    "eval": "eval classical 12w",
    "sweep": "sweep S5 4w pass",
}


def main():
    corpus = run.prepare()
    if corpus is None:
        return 2
    problems = []

    def check(label, result, want_failed):
        failed = len(result.failures)
        ok = failed == want_failed and result.attempted >= 1
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed_ratio "
              f"{result.failed_ratio:.3g} ({failed} of {result.attempted})")
        if not ok:
            problems.extend(result.failures or [label])
        return result

    def small(workload):
        items = corpus.build(workload, 0)
        return [next(i for i in items if i.label == SMALL[workload])]

    for workload in run.WORKLOADS:
        check(f"{workload}: {SMALL[workload]}",
              run.execute(workload, 0, 0, 0, small(workload)), 0)
    traced = check("eval traced", run.execute("eval", 0, 0, 1, small("eval")), 0)
    if traced.metrics["semantics.evaluations"] != 1:
        problems.append("the traced run did not record the evaluation")

    wrong = small("quotient")
    rc, lines = wrong[0].expected
    wrong[0].expected = (rc, [ln.replace(" of 16", " of 17") for ln in lines])
    check("deliberately wrong expected answer",
          run.execute("quotient", 0, 0, 0, wrong), 1)

    for why in problems:
        print(f"  {why}")
    print("SMOKE PASS" if not problems else "SMOKE FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
