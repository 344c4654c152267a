"""Exact elimination: the certified nullspace, the Bareiss kernel, the rational layer."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

import oracles
from dskrv import CrossCheckError, dshuffle, lie, linalg
from dskrv._kernels import pure

# The largest prime below 2**24, where the modular nullspace starts.
FIRST_PRIME = 16777213
SECOND_PRIME = 16777199
PRIMES = linalg._primes


def cap_primes(monkeypatch, k):
    """Let nullspace use only its first k primes, so a regression fails fast."""
    monkeypatch.setattr(linalg, "_primes", lambda: islice(PRIMES(), k))


def random_int_matrix(rng, nrows, ncols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("kernel", [pure], ids=lambda k: k.IMPLEMENTATION)
def test_kernel_echelon_hand_matrix(kernel):
    rows = [[2, 4, 6], [1, 2, 4], [0, 0, 1]]
    ech, pivots = kernel.row_echelon(rows, 3)
    assert pivots == [0, 2]
    # echelon rows stay integer and reproduce the row space rank
    assert all(isinstance(v, int) for r in ech for v in r)
    assert rows == [[2, 4, 6], [1, 2, 4], [0, 0, 1]]  # input untouched


def test_integerize_row():
    row = [Fraction(1, 2), Fraction(1, 3), 1]
    assert linalg.integerize_row(row) == [3, 2, 6]
    assert linalg.integerize_row([1, -2]) == [1, -2]


def test_rank():
    assert oracles.rank([[1, 2], [2, 4]], 2) == 1
    assert oracles.rank([[1, 0], [0, 1]], 2) == 2
    assert oracles.rank([], 4) == 0
    assert oracles.rank([[Fraction(1, 2), 1], [1, 2]], 2) == 1


def test_nullspace_is_exact_and_canonical():
    rows = [[1, 1, 1], [1, 2, 3]]
    basis = linalg.nullspace(rows, 3)
    assert basis == [[Fraction(1), Fraction(-2), Fraction(1)]]
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    # full-rank system has empty nullspace
    assert linalg.nullspace([[1, 0], [0, 1]], 2) == []
    # zero matrix: identity basis in rref order
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_annihilates_random_systems(seed):
    rng = random.Random(100 + seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(2, 8)
    rows = random_int_matrix(rng, nrows, ncols)
    basis = linalg.nullspace(rows, ncols)
    assert len(basis) == ncols - oracles.rank(rows, ncols)
    for v in basis:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


def test_solve():
    sol = linalg.solve([[2, 0], [0, 4]], [1, 1], 2)
    assert sol == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1], 2) is None
    # underdetermined: returned solution must satisfy the system
    rows, rhs = [[1, 2, 3]], [6]
    sol = linalg.solve(rows, rhs, 3)
    assert sum(a * b for a, b in zip(rows[0], sol)) == 6


@pytest.mark.parametrize(
    "rows, rhs, ncols, expected",
    [
        ([[1, 2, 3]], [6], 3, [6, 0, 0]),
        ([[0, 2, 4], [0, 0, 3]], [2, 3], 3, [0, -1, 1]),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], [2, 5], 4, [2, 0, 5, 0]),
    ],
)
def test_solve_sets_free_coordinates_to_zero(rows, rhs, ncols, expected):
    # the convention a replacement of the Bareiss solve must keep
    assert linalg.solve(rows, rhs, ncols) == expected


def test_rref_canonical_form():
    rows = [[2, 4, 6], [1, 2, 4]]
    red = linalg.rref(rows, 3)
    assert red == [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    # idempotent
    assert linalg.rref(red, 3) == red


# -- the certified modular nullspace against the Bareiss oracle ----------------------


def low_rank_matrix(rng, nrows, ncols, rank, bound=9):
    """Random rows spanned by `rank` random integer rows."""
    gens = random_int_matrix(rng, rank, ncols, bound)
    return [
        [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)]
        for coeffs in random_int_matrix(rng, nrows, rank, 3)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_matches_bareiss_on_random_integer_matrices(seed):
    rng = random.Random(4000 + seed)
    ncols = rng.randint(1, 12)
    rows = low_rank_matrix(rng, rng.randint(0, 15), ncols, rng.randint(0, ncols))
    assert linalg.nullspace(rows, ncols) == oracles.bareiss_nullspace(rows, ncols)


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_matches_bareiss_on_random_fraction_matrices(seed):
    rng = random.Random(5000 + seed)
    ncols = rng.randint(2, 9)
    rows = [
        [Fraction(v, rng.randint(1, 50)) for v in row]
        for row in low_rank_matrix(rng, rng.randint(1, 10), ncols, rng.randint(1, ncols - 1), 99)
    ]
    assert linalg.nullspace(rows, ncols) == oracles.bareiss_nullspace(rows, ncols)


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([], 0),
        ([], 3),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[1, 2], [3, 4]], 2),
        ([[Fraction(1, 3), 0, 0], [0, 5, 0], [0, 0, -7], [1, 1, 1]], 3),
    ],
    ids=["no-columns", "no-rows", "zero", "full-rank", "full-rank-fractions"],
)
def test_nullspace_edge_cases_match_bareiss(rows, ncols):
    assert linalg.nullspace(rows, ncols) == oracles.bareiss_nullspace(rows, ncols)


@pytest.mark.parametrize("n", range(3, 11))
def test_nullspace_matches_bareiss_on_ds_constraints(n):
    rows = dshuffle.constraint_rows(n)
    ncols = lie.lyndon_basis(n).dimension
    assert linalg.nullspace(rows, ncols) == oracles.bareiss_nullspace(rows, ncols)


def test_prime_sequence_starts_below_two_to_the_24():
    primes = linalg._primes()
    assert [next(primes), next(primes)] == [FIRST_PRIME, SECOND_PRIME]


def test_nullspace_survives_rank_drop_modulo_the_first_primes(monkeypatch):
    # Entries divisible by the first two primes vanish modulo each of
    # them, so both see rank 1 and nullity 2; over Q the rank is 2.  The
    # kernel vector then needs 8 primes to reconstruct.
    cap_primes(monkeypatch, 8)
    big = FIRST_PRIME * SECOND_PRIME
    rows = [[big, 0, 1], [0, big, 1], [big, big, 2]]
    basis = linalg.nullspace(rows, 3)
    assert basis == [[1, 1, -big]]
    assert basis == oracles.bareiss_nullspace(rows, 3)


def test_nullspace_combines_primes_when_one_cannot_reconstruct(monkeypatch):
    # The kernel vector (1, -100003/99991) is beyond the reconstruction
    # bound of a single prime: one prime cannot certify it, two can.
    assert 99991 > isqrt(FIRST_PRIME // 2)
    rows = [[100003, 99991], [2 * 100003, 2 * 99991]]
    cap_primes(monkeypatch, 1)
    with pytest.raises(CrossCheckError):
        linalg.nullspace(rows, 2)
    cap_primes(monkeypatch, 2)
    assert linalg.nullspace(rows, 2) == [[1, Fraction(-100003, 99991)]]
    wide = [[100003 * 3, 99991 * 5, 7919]]
    assert linalg.nullspace(wide, 3) == oracles.bareiss_nullspace(wide, 3)
