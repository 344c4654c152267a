"""Benchmark: the certified modular nullspace against Bareiss elimination.

Builds the integer constraint matrices of the basis computation
(`dshuffle.constraint_rows`: stuffle functionals evaluated against the
Lyndon expansion of each free-Lie basis element) and times, on each,
`linalg.nullspace` (multi-modular, verified exactly against every row)
and `pure.row_echelon` (fraction-free Bareiss, the kernel behind `rank`
and `solve`).  The nullity of the one must equal the number of free
columns of the other.  Run as:

    python3 benchmarks/bench_elim.py [--weights 8,9,10,11] [--repeat 1] [--json]
"""

from __future__ import annotations

import argparse
import json
import time

from dskrv import dshuffle, lie, linalg
from dskrv._kernels import pure


def best_of(fn, repeat: int):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weights", default="8,9,10,11", help="comma list of weights")
    ap.add_argument("--repeat", type=int, default=1, help="runs per measurement")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = ap.parse_args()

    results = []
    for n in (int(w) for w in args.weights.split(",")):
        rows = dshuffle.constraint_rows(n)
        ncols = lie.lyndon_basis(n).dimension
        null_s, null = best_of(lambda: linalg.nullspace(rows, ncols), args.repeat)
        bareiss_s, (_, pivots) = best_of(lambda: pure.row_echelon(rows, ncols), args.repeat)
        results.append(
            {
                "weight": n,
                "rows": len(rows),
                "cols": ncols,
                "nullity": len(null),
                "nullspace_s": round(null_s, 4),
                "bareiss_s": round(bareiss_s, 4),
                "agree": len(null) == ncols - len(pivots),
            }
        )

    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(
            f"{'weight':>6} {'rows':>6} {'cols':>5} {'nullity':>7} "
            f"{'nullspace (s)':>14} {'bareiss (s)':>12} {'agree':>6}"
        )
        for e in results:
            print(
                f"{e['weight']:>6} {e['rows']:>6} {e['cols']:>5} {e['nullity']:>7} "
                f"{e['nullspace_s']:>14.4f} {e['bareiss_s']:>12.4f} {str(e['agree']):>6}"
            )
    return 0 if all(e["agree"] for e in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
