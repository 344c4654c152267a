"""Elimination kernels on the weight 8-10 stuffle-constraint matrices.

Run in a fresh interpreter by run.py during a traced run.  Reads a JSON
job ({"src": ..., "weights": [...], "repeat": k}) from stdin and prints
one JSON object: the median `row_echelon` time of each kernel and the
number of disagreements.  The pure kernel is checked against the pivot
columns of an independent elimination modulo a large prime, and the
compiled kernel, when `dskrv._kernels._ffge` imports, against the pure
kernel's exact output.  The checks are explicit comparisons, so they
also run under `python -O`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

PRIME = (1 << 61) - 1


def constraint_matrix(n: int) -> list[list[int]]:
    """Integer stuffle-constraint rows over Lyndon coordinates at weight n."""
    from dskrv import dshuffle, lie

    basis = lie.lyndon_basis(n)
    rows = []
    for a, b in dshuffle.stuffle_pairs(n):
        st = dshuffle.stuffle(
            dshuffle.word_of_composition(a), dshuffle.word_of_composition(b)
        )
        rows.append([int(st.pairing(e)) for e in basis.expansions])
    return rows


def pivots_mod_p(rows: list[list[int]], ncols: int) -> list[int]:
    """Pivot columns of the row echelon form over GF(PRIME)."""
    mat = [[v % PRIME for v in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][col], -1, PRIME)
        prow = [v * inv % PRIME for v in mat[r]]
        mat[r] = prow
        for i in range(r + 1, len(mat)):
            c = mat[i][col]
            if c:
                mat[i] = [(a - c * b) % PRIME for a, b in zip(mat[i], prow)]
        pivots.append(col)
        r += 1
    return pivots


def median_time(fn, rows, ncols, repeat: int):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(rows, ncols)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(job["src"]).resolve()))
    from dskrv._kernels import pure

    try:
        from dskrv._kernels import _ffge as compiled
    except ImportError:
        compiled = None

    result = {"elim.pure.busy_s": 0.0, "elim.compiled.busy_s": 0.0, "elim.checks": 0,
              "elim.disagreements": 0, "elim.cells": 0, "compiled": compiled is not None}
    for n in job["weights"]:
        rows = constraint_matrix(n)
        ncols = len(rows[0])
        result["elim.cells"] += len(rows) * ncols
        seconds, (ech, pivots) = median_time(pure.row_echelon, rows, ncols, job["repeat"])
        result["elim.pure.busy_s"] += seconds
        result["elim.checks"] += 1
        if list(pivots) != pivots_mod_p(rows, ncols):
            result["elim.disagreements"] += 1
        if compiled is not None:
            seconds, out = median_time(compiled.row_echelon, rows, ncols, job["repeat"])
            result["elim.compiled.busy_s"] += seconds
            result["elim.checks"] += 1
            if [list(r) for r in out[0]] != [list(r) for r in ech] or list(out[1]) != list(pivots):
                result["elim.disagreements"] += 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
