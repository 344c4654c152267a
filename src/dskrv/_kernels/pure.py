"""Pure-Python fraction-free row reduction (Bareiss one-step scheme).

Entries stay integers throughout: every update is
(pivot * a - lead * b) / previous_pivot with an exact division.  It
backs only `linalg.row_echelon`, which no library code calls: only the
elimination benchmark (`perfbench/elim.py`), the benchmark tracer and
the Bareiss references of the tests reach it.  `linalg.solve` runs on
`linalg.nullspace`.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"


def _exact_div(a: int, d: int) -> int:
    q, r = divmod(a, d)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def row_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduce integer rows to echelon form; returns (pivot_rows, pivot_cols).

    Deterministic: columns are processed left to right and the first
    remaining row with a nonzero entry is chosen as pivot.  Input rows
    are not modified.
    """
    mat = [list(r) for r in rows]
    nr = len(mat)
    pivots: list[int] = []
    denom = 1
    piv = 0
    for col in range(ncols):
        if piv >= nr:
            break
        sel = -1
        for i in range(piv, nr):
            if mat[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != piv:
            mat[piv], mat[sel] = mat[sel], mat[piv]
        prow = mat[piv]
        p = prow[col]
        for i in range(piv + 1, nr):
            row = mat[i]
            v = row[col]
            if v:
                for j in range(col, ncols):
                    row[j] = _exact_div(p * row[j] - v * prow[j], denom)
            elif p != denom:
                for j in range(col + 1, ncols):
                    if row[j]:
                        row[j] = _exact_div(p * row[j], denom)
        denom = p
        pivots.append(col)
        piv += 1
    return mat[:piv], pivots
