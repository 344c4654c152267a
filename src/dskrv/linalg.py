"""Exact linear algebra over the rationals, deterministic throughout.

`nullspace` is certified multi-modular elimination.  For each prime of a
deterministic sequence of word-size primes, the kernel mod p is read off
a forward echelon form by one back-substitution.  The first prime
eliminates a seeded prefix of the rows and checks every other row
against the prefix's kernel, eliminating only the rows that fail; the
later primes eliminate only the rows that raised its rank.  The kernel
bases are combined by the Chinese remainder theorem and rationally
reconstructed, and a candidate is returned only after it annihilates
every input row exactly.  `solve` reads one solution off the nullspace
of the augmented rows.  `row_echelon` is fraction-free Bareiss
elimination over the integers (`dskrv._kernels.pure`); no library code
calls it, only `perfbench/elim.py`, the benchmark's tracer and the
reference nullspace and solve of `tests/oracles.py`.  Rows may be given
with int or Fraction entries; each row is scaled to integers first,
which changes neither rank, nullspace nor solvability.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import insort
from fractions import Fraction
from itertools import compress, islice
from math import isqrt, lcm
from operator import mul

from . import CrossCheckError
from ._kernels import pure

KERNEL = pure.IMPLEMENTATION


def integerize_row(row: list) -> list[int]:
    """Scale one row by the lcm of its denominators to integer entries.

    An all-int row, the common case in nullspace, is copied without
    building the denominator set or converting each entry.  With every
    row sent through the general path below, nullspace(constraint_rows(n))
    took about a quarter longer at weight 12 and a tenth at weight 13.
    """
    if set(map(type, row)) <= {int}:
        return list(row)
    m = lcm(*{v.denominator for v in row})
    if m == 1:
        return list(map(int, row))
    return [int(v * m) for v in row]


def row_echelon(rows: list[list], ncols: int) -> tuple[list[list[int]], list[int]]:
    return pure.row_echelon([integerize_row(r) for r in rows], ncols)


# -- certified multi-modular nullspace -----------------------------------------
#
# A row mod p is packed into one int with one 64-bit slot per column, so
# adding c times another packed row is a single big-integer multiply-add.
# The primes are below 2**24, so a slot of reduced entries absorbs
# 2**64 // p**2 - 1 such updates before it has to be reduced again.
#
# Elimination keeps a forward echelon form: each pivot row is packed from
# its lead column on, with entry 1 there, and is never changed once it is
# a pivot.  The kernel is read off it by one back-substitution.

_SLOT = 64
_MASK = (1 << _SLOT) - 1
# The first prime visits the rows in this seeded shuffled order.  Rows
# built in runs of related constraints, like the stuffle pairs of
# dshuffle.constraint_rows, leave much of the rank outside a prefix taken
# in their own order, and every row that fails the check is eliminated.
_ORDER_SEED = 0


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


def _reduce(vals: list[int], leads: list[int], prows: dict[int, int], ncols: int, p: int) -> bool:
    """Reduce a row of residues mod p by the forward echelon (leads, prows).

    prows[l] packs the pivot row with lead l from column l on.  The row
    is reduced by the pivots in increasing lead order until it has a
    nonzero entry in a column that is no pivot's lead; it then becomes
    the pivot there.  Returns whether it did, i.e. whether the rank rose.
    """
    limit = (1 << _SLOT) // (p * p) - 1
    rest, pos, updates = _pack(vals), 0, 0  # rest packs the columns from pos on
    for lead in leads:
        if lead > pos:
            gap = _SLOT * (lead - pos)
            if any(v % p for v in _unpack(rest & ((1 << gap) - 1), lead - pos)):
                break
            rest >>= gap
        c = (rest & _MASK) % p
        if c:
            rest += (p - c) * prows[lead]
            updates += 1
            if updates == limit:
                rest, updates = _pack([v % p for v in _unpack(rest, ncols - lead)]), 0
        rest >>= _SLOT
        pos = lead + 1
    vals = [v % p for v in _unpack(rest, ncols - pos)]
    j = next((j for j, v in enumerate(vals) if v), None)
    if j is None:
        return False
    inv = pow(vals[j], -1, p)
    insort(leads, pos + j)
    prows[pos + j] = _pack([v * inv % p for v in vals[j:]])
    return True


def _dot(coeffs, packed, width: int, p: int) -> array:
    """The width slots mod p of sum(map(mul, coeffs, packed)); coeffs in [0, p)."""
    limit = (1 << _SLOT) // (p * p) - 1
    terms = map(mul, coeffs, packed)
    total = 0
    for _ in range(0, len(coeffs), limit):
        total = _pack([v % p for v in _unpack(sum(islice(terms, limit), total), width)])
    return _unpack(total, width)


def _annihilates(row: list[int], cols: list[int], width: int, p: int) -> bool:
    """Whether row is orthogonal mod p to every kernel vector packed in cols."""
    return not any(_dot([v % p for v in filter(None, row)], compress(cols, row), width, p))


def _kernel_columns(
    leads: list[int], prows: dict[int, int], ncols: int, p: int
) -> tuple[list[int], list[int]]:
    """The free columns, and each column of the kernel basis mod p packed.

    Basis vector i is the unit vector on the i-th free column, completed
    by back-substitution through the pivot rows in decreasing lead order:
    the vector the reduced echelon form gives.  Slot i of the j-th packed
    int is its entry j.
    """
    lead_set = set(leads)
    free = [j for j in range(ncols) if j not in lead_set]
    cols = [0] * ncols
    for i, f in enumerate(free):
        cols[f] = 1 << (_SLOT * i)
    for lead in reversed(leads):
        # entry 1 of the pivot meets cols[lead], still 0
        slots = _dot(_unpack(prows[lead], ncols - lead), islice(cols, lead, None), len(free), p)
        cols[lead] = _pack([-v % p for v in slots])
    return free, cols


def _kernel_mod_p(
    rows: list[list[int]], order: list[int], ncols: int, p: int, prefix: int
) -> tuple[list[int], list[int], list[int]]:
    """The kernel mod p of the rows listed in order, from a checked prefix.

    The first prefix rows are eliminated, and every later row is checked
    against their kernel with one packed dot product.  A row that
    annihilates the kernel of a set of rows mod p lies in their row space
    mod p, so eliminating the rows that fail as well gives the kernel of
    all the rows listed.  Returns the free columns and packed kernel
    columns (see _kernel_columns) and the indices of the rows that raised
    the rank.
    """
    leads: list[int] = []
    prows: dict[int, int] = {}
    used: list[int] = []

    def eliminate(batch: list[int]) -> None:
        for i in batch:
            if len(leads) < ncols and _reduce([v % p for v in rows[i]], leads, prows, ncols, p):
                used.append(i)

    eliminate(order[:prefix])
    free, cols = _kernel_columns(leads, prows, ncols, p)
    failed = [i for i in order[prefix:] if free and not _annihilates(rows[i], cols, len(free), p)]
    if failed:
        eliminate(failed)
        free, cols = _kernel_columns(leads, prows, ncols, p)
    return free, cols, used


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

    For each prime p the kernel mod p is read off a forward echelon form,
    with unit vectors on the free columns (see _kernel_mod_p).  The first
    prime visits the rows in a seeded shuffled order: it eliminates the
    first ncols of them and checks every other row against their kernel
    mod p, eliminating only the rows that fail.  The later primes
    eliminate only the rows that raised its rank, plus any row a
    candidate failed on.  Primes whose nullity exceeds the smallest one
    seen are dropped; kernels with the same free columns are combined by
    CRT and reconstructed as rationals.  The result is returned once
    every reconstructed vector annihilates every row exactly.  That
    proves it: nullity over Q is at most the nullity mod p of any subset
    of the rows, and the verified vectors, unit vectors on the free
    columns, are that many independent kernel elements.  So the primes,
    the row order and the checked prefix affect only the speed, and the
    reduced echelon form of the verified vectors does not depend on them.
    """
    mat = [integerize_row(r) for r in rows]
    if ncols == 0:
        return []
    order = list(range(len(mat)))
    random.Random(_ORDER_SEED).shuffle(order)
    best = ncols + 1
    groups: dict[tuple[int, ...], tuple[int, list[list[int]]]] = {}
    subset = None
    for p in _primes():
        if subset is None:
            free, cols, subset = _kernel_mod_p(mat, order, ncols, p, ncols)
        else:
            free, cols, _ = _kernel_mod_p(mat, subset, ncols, p, len(subset))
        nullity = len(free)
        if nullity == 0:
            return []
        if nullity > best:
            continue
        if nullity < best:
            best, groups = nullity, {}
        free = tuple(free)
        modulus, acc = groups.get(free, (1, [[0] * ncols for _ in free]))
        inv = pow(modulus, -1, p)
        for vec, residues in zip(acc, zip(*(_unpack(c, nullity) for c in cols))):
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
    """One exact solution of rows * v = rhs (free coordinates 0), or None.

    The kernel of [-b | A reversed] has a vector with entry 1 on column 0
    exactly when the system is solvable.  The first row of its reduced
    echelon form is then that vector, and it is 0 on every other pivot
    column: those are the free columns of A, reversed.
    """
    kernel = nullspace([[-b, *row[::-1]] for row, b in zip(rows, rhs)], ncols + 1)
    if not kernel or not kernel[0][0]:
        return None
    return kernel[0][:0:-1]


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
