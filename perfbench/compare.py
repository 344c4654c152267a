"""Compare result files written by run.py, side by side.

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Prints, for every metric, the median and quartiles of each side and the
change of the medians.  Flags the comparison when the files disagree on
the workload or trace mode, or when their kernel or Python version
differ: such numbers do not measure the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def span(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def mismatches(results: list[dict]) -> list[str]:
    flags = []
    for key in ("workload", "trace"):
        seen = {str(r[key]) for r in results}
        if len(seen) > 1:
            flags.append(f"{key} differs: {sorted(seen)}")
    for key in ("kernel", "python"):
        seen = {str(r["fingerprint"][key]) for r in results}
        if len(seen) > 1:
            flags.append(f"{key} differs: {sorted(seen)}")
    return flags


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    base = [json.load(open(p)) for p in args.base]
    change = [json.load(open(p)) for p in args.change]
    flags = mismatches(base + change)
    for f in flags:
        print(f"WARNING: {f}; the runs are not comparable")
    print(f"{'metric':<48} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'change':>8}")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name] for r in base if name in r["metrics"]]
        c = [r["metrics"][name] for r in change if name in r["metrics"]]
        if not b or not c:
            continue
        bq, cq = quartiles(b), quartiles(c)
        rel = f"{(cq[1] - bq[1]) / bq[1]:+.1%}" if bq[1] else "n/a"
        print(f"{name:<48} {span(bq):>30} {span(cq):>30} {rel:>8}")
    failed = sum(r["failed"] for r in base + change)
    if failed:
        print(f"WARNING: {failed} failed operations among these runs")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
