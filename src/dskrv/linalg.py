"""Exact linear algebra over the rationals, deterministic throughout.

`nullspace` is certified multi-modular elimination: the rows are
reduced modulo a deterministic sequence of word-size primes, the kernel
bases are combined by the Chinese remainder theorem and rationally
reconstructed, and a candidate is returned only after it annihilates
every input row exactly.  `solve` and `row_echelon` run fraction-free
Bareiss elimination over the integers (`dskrv._kernels.pure`) with
rational back-substitution here.  Rows may be given with int or Fraction
entries; each row is scaled to integers first, which changes neither
rank, nullspace nor solvability.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from . import CrossCheckError
from ._kernels import pure

KERNEL = pure.IMPLEMENTATION


def integerize_row(row: list) -> list[int]:
    """Scale one row by the lcm of its denominators to integer entries."""
    m = lcm(*{v.denominator for v in row})
    if m == 1:
        return list(map(int, row))
    return [int(v * m) for v in row]


def row_echelon(rows: list[list], ncols: int) -> tuple[list[list[int]], list[int]]:
    return pure.row_echelon([integerize_row(r) for r in rows], ncols)


def _back_substitute(
    ech: list[list[int]], pivots: list[int], v: list[Fraction], ncols: int
) -> None:
    """Fill pivot coordinates of v so every echelon row pairs to zero."""
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        row = ech[i]
        s = sum(row[j] * v[j] for j in range(c + 1, ncols) if v[j])
        v[c] = Fraction(-s, row[c])


# -- certified multi-modular nullspace -----------------------------------------
#
# A row mod p is packed into one int with one 64-bit slot per column, so
# adding c times another packed row is a single big-integer multiply-add.
# The primes are below 2**24, so a slot of reduced entries absorbs
# 2**64 // p**2 - 1 such updates before it has to be reduced again.

_SLOT = 64


def _pack(vals) -> int:
    return int.from_bytes(array("Q", vals).tobytes(), sys.byteorder)


def _unpack(packed: int, ncols: int) -> array:
    return array("Q", packed.to_bytes(8 * ncols, sys.byteorder))


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd 7 < n < 3.2e9, where bases 2, 3, 5, 7 are exact."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes between 8 and 2**24, largest first."""
    return (n for n in range((1 << 24) - 1, 8, -2) if _is_prime(n))


def _eliminate_mod_p(
    rows: list[list[int]], order, ncols: int, p: int
) -> tuple[list[int], list[int], list[int]]:
    """Reduced row echelon form mod p of the rows listed in order.

    Returns the pivot columns, the packed reduced pivot rows (entries in
    [0, p), leading 1, zero in every other pivot column) and the indices
    of the rows that raised the rank.  Because the pivot rows stay
    reduced, the multiple of each one to subtract from a new row is read
    off the new row's own entries.
    """
    limit = (1 << _SLOT) // (p * p) - 1
    cols: list[int] = []
    prows: list[int] = []
    used: list[int] = []
    for i in order:
        row = rows[i]
        vals = [v % p for v in row]
        if cols:
            coeffs = [-row[c] % p for c in cols]
            packed = _pack(vals)
            for s in range(0, len(cols), limit):
                packed = sum(map(mul, coeffs[s : s + limit], prows[s : s + limit]), packed)
                vals = [v % p for v in _unpack(packed, ncols)]
                packed = _pack(vals)
        lead = next((j for j, v in enumerate(vals) if v), None)
        if lead is None:
            continue
        inv = pow(vals[lead], -1, p)
        new = _pack([v * inv % p for v in vals])
        shift = _SLOT * lead
        for k, prow in enumerate(prows):
            c = (prow >> shift) & 0xFFFFFFFFFFFFFFFF
            if c:
                prows[k] = _pack([v % p for v in _unpack(prow + (p - c) * new, ncols)])
        cols.append(lead)
        prows.append(new)
        used.append(i)
        if len(cols) == ncols:
            break
    return cols, prows, used


def _rational(u: int, m: int) -> Fraction | None:
    """The a/b = u mod m with |a|, b <= sqrt(m/2), if there is one (Wang)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _reconstruct(acc: list[list[int]], modulus: int) -> list[list[Fraction]] | None:
    """Rational reconstruction of every residue vector, or None if one fails."""
    out = []
    for vec in acc:
        rec = [_rational(x, modulus) for x in vec]
        if None in rec:
            return None
        out.append(rec)
    return out


def _failing_row(rows: list[list[int]], vecs: list[list[Fraction]]) -> int | None:
    """Index of a row with a nonzero product with one of vecs, or None."""
    for vec in vecs:
        den = lcm(*(q.denominator for q in vec))
        ints = [q.numerator * (den // q.denominator) for q in vec]
        for i, row in enumerate(rows):
            if sum(map(mul, row, ints)):
                return i
    return None


def nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Canonical rational nullspace basis (reduced row echelon rows).

    For each prime p the kernel mod p is read off the reduced echelon
    form, with unit vectors on the free columns.  Primes whose nullity
    exceeds the smallest one seen are dropped; kernels with the same
    free columns are combined by CRT and reconstructed as rationals.
    The result is returned once every reconstructed vector annihilates
    every row exactly.  That proves it: nullity over Q is at most the
    nullity mod p of any subset of the rows, and the verified vectors,
    unit vectors on the free columns, are that many independent kernel
    elements.  So the primes affect only the speed.  After the first
    prime only the rows that raised its rank are eliminated, plus any
    row a candidate failed on.
    """
    mat = [integerize_row(r) for r in rows]
    if ncols == 0:
        return []
    best = ncols + 1
    groups: dict[tuple[int, ...], tuple[int, list[list[int]]]] = {}
    subset = None
    for p in _primes():
        cols, prows, used = _eliminate_mod_p(
            mat, range(len(mat)) if subset is None else subset, ncols, p
        )
        if subset is None:
            subset = used
        nullity = ncols - len(cols)
        if nullity == 0:
            return []
        if nullity > best:
            continue
        if nullity < best:
            best, groups = nullity, {}
        pivot_rows = [_unpack(r, ncols) for r in prows]
        pivot_set = set(cols)
        free = tuple(c for c in range(ncols) if c not in pivot_set)
        modulus, acc = groups.get(free, (1, [[0] * ncols for _ in free]))
        inv = pow(modulus, -1, p)
        for f, vec in zip(free, acc):
            residues = [0] * ncols
            residues[f] = 1
            for c, prow in zip(cols, pivot_rows):
                residues[c] = -prow[f] % p
            vec[:] = [x + modulus * ((r - x) * inv % p) for x, r in zip(vec, residues)]
        modulus *= p
        groups[free] = (modulus, acc)
        candidates = _reconstruct(acc, modulus)
        if candidates is None:
            continue
        bad = _failing_row(mat, candidates)
        if bad is None:
            return rref(candidates, ncols)
        if bad not in subset:
            subset = sorted(subset + [bad])
    raise CrossCheckError("no certified nullspace from the primes below 2**24")


def solve(rows: list[list], rhs: list, ncols: int) -> list[Fraction] | None:
    """One exact solution of rows * v = rhs (free coordinates 0), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = row_echelon(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    v = [Fraction(0)] * (ncols + 1)
    v[ncols] = Fraction(-1)
    _back_substitute(ech, pivots, v, ncols + 1)
    return v[:ncols]


def rref(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals; zero rows dropped."""
    mat = [[Fraction(v) for v in r] for r in rows]
    piv = 0
    pivots = []
    for col in range(ncols):
        sel = next((i for i in range(piv, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[piv], mat[sel] = mat[sel], mat[piv]
        prow = mat[piv]
        inv = 1 / prow[col]
        mat[piv] = prow = [v * inv for v in prow]
        for i in range(len(mat)):
            if i != piv and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], prow)]
        pivots.append(col)
        piv += 1
    return mat[:piv]
