"""Exact elimination: the certified nullspace, the Bareiss kernel, the rational layer."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
from operator import mul

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


def test_integerize_row_returns_a_new_list_of_ints():
    row = [3, -4]
    assert linalg.integerize_row(row) == row and linalg.integerize_row(row) is not row
    assert linalg.integerize_row((3, -4)) == [3, -4]
    out = linalg.integerize_row([Fraction(4, 2), 3, True])
    assert out == [2, 3, 1] and {type(v) for v in out} == {int}


def test_integerize_row_copies_an_all_int_row_without_the_lcm(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "lcm", lambda *dens: calls.append(dens) or 1)
    assert linalg.integerize_row([3, -4, 0]) == [3, -4, 0] and calls == []
    assert linalg.integerize_row([3, True]) == [3, 1] and calls == [(1,)]


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


def random_system(rng):
    """A random system with int or Fraction entries, solvable or not, with some
    empty matrices, zero-width rows and zero rows."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    rows = low_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), bound=5)
    for r in rows:
        if rng.random() < 0.15:
            r[:] = [0] * ncols
    if rng.random() < 0.5:
        rows = [[Fraction(v, rng.randint(1, 6)) for v in r] for r in rows]
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum(map(mul, r, x)) for r in rows]
    else:
        rhs = [rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)]) for _ in rows]
    return rows, rhs, ncols


def test_solve_matches_the_bareiss_solve_on_random_systems():
    rng = random.Random(2101)
    solvable = 0
    for _ in range(400):
        rows, rhs, ncols = random_system(rng)
        got = linalg.solve(rows, rhs, ncols)
        expected = oracles.bareiss_solve(rows, rhs, ncols)
        assert got == expected
        if expected is not None:
            solvable += 1
            assert [type(v) for v in got] == [type(v) for v in expected]
    assert 100 < solvable < 300


def test_solve_runs_without_the_bareiss_kernel(monkeypatch):
    def refuse(*args):
        raise RuntimeError("Bareiss elimination called")

    monkeypatch.setattr(linalg, "row_echelon", refuse)
    monkeypatch.setattr(pure, "row_echelon", refuse)
    assert linalg.solve([[0, 2, 4], [0, 0, 3]], [2, 3], 3) == [0, -1, 1]
    assert linalg.solve([[1, 1], [2, 2]], [1, 3], 2) is None


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


# -- the check-driven first prime ---------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_matches_bareiss_on_tall_low_rank_matrices(seed):
    # 200 rows and 20 columns: the first prime eliminates a prefix of
    # about 20 rows and checks the other 180 against its kernel
    rng = random.Random(6000 + seed)
    rows = low_rank_matrix(rng, 200, 20, rng.randint(1, 19))
    assert linalg.nullspace(rows, 20) == oracles.bareiss_nullspace(rows, 20)
    fractions = [[Fraction(v, rng.randint(1, 30)) for v in row] for row in rows]
    assert linalg.nullspace(fractions, 20) == oracles.bareiss_nullspace(fractions, 20)


@pytest.mark.parametrize("prefix", [1, 3, 12])
def test_kernel_mod_p_of_a_checked_prefix_is_the_kernel_of_every_row(prefix):
    # However short the eliminated prefix, eliminating the rows that fail
    # the check as well gives the kernel mod p of all the rows: one vector
    # per free column, unit on the free columns, orthogonal to every row
    # mod p.
    p = FIRST_PRIME
    rng = random.Random(6100 + prefix)
    rows = low_rank_matrix(rng, 60, 12, 7)
    free, cols, used = linalg._kernel_mod_p(rows, list(range(60)), 12, p, prefix)
    assert len(free) == len(oracles.bareiss_nullspace(rows, 12)) == 5
    assert len(used) == 7 and oracles.rank([rows[i] for i in used], 12) == 7
    kernel = [list(vec) for vec in zip(*(linalg._unpack(c, len(free)) for c in cols))]
    unit = [[int(i == j) for j in range(5)] for i in range(5)]
    assert [[vec[f] for f in free] for vec in kernel] == unit
    assert all(sum(map(mul, row, vec)) % p == 0 for row in rows for vec in kernel)


def test_nullspace_catches_a_rank_drop_the_first_prime_cannot_see(monkeypatch):
    # The last row is (1, 1, 1) plus FIRST_PRIME in the fourth column: mod
    # the first prime it lies in the span of the other rows, so it passes
    # the modular check wherever it stands, and only the exact check of
    # the candidate (0, 0, 0, 1) against every row finds it.
    rng = random.Random(6200)
    body = [[rng.randint(-9, 9) for _ in range(3)] + [0] for _ in range(40)]
    hidden = [1, 1, 1, FIRST_PRIME]
    caught = []

    def failing_row(rows, vecs):
        caught.append(rows[bad] if (bad := real(rows, vecs)) is not None else None)
        return bad

    real = linalg._failing_row
    monkeypatch.setattr(linalg, "_failing_row", failing_row)
    for at in range(len(body) + 1):
        caught.clear()
        rows = body[:at] + [hidden] + body[at:]
        assert linalg.nullspace(rows, 4) == [] == oracles.bareiss_nullspace(rows, 4)
        assert caught[0] == hidden


def test_nullspace_does_not_depend_on_the_row_order():
    rng = random.Random(6300)
    rows = low_rank_matrix(rng, 150, 16, 13)
    expected = oracles.bareiss_nullspace(rows, 16)
    for seed in range(4):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert linalg.nullspace(shuffled, 16) == expected


def test_ds_constraint_nullspace_does_not_depend_on_the_row_order():
    # the row order affects only the speed of the first prime
    for n in range(3, 11):
        rows = dshuffle.constraint_rows(n)
        ncols = lie.lyndon_basis(n).dimension
        shuffled = list(rows)
        random.Random(n).shuffle(shuffled)
        assert linalg.nullspace(rows[::-1], ncols) == linalg.nullspace(shuffled, ncols)


def test_nullspace_at_weight_11_is_certified():
    rows = dshuffle.constraint_rows(11)
    basis = linalg.nullspace(rows, 186)
    assert len(basis) == 2
    for vec in basis:
        den = lcm(*(q.denominator for q in vec))
        ints = [q.numerator * (den // q.denominator) for q in vec]
        assert not any(sum(map(mul, row, ints)) for row in rows)


def test_nullspace_renormalises_slots_near_the_overflow_bound(monkeypatch):
    # Primes above 2.4e9 leave room for only 2 updates of a 64-bit slot
    # before it must be reduced again: every reduction and every packed
    # dot product then renormalises many times.
    big_primes = [2400000011, 2400000017, 2400000023]
    assert all(linalg._is_prime(p) and (1 << 64) // (p * p) - 1 == 2 for p in big_primes)
    monkeypatch.setattr(linalg, "_primes", lambda: iter(big_primes))
    rng = random.Random(6400)
    rows = low_rank_matrix(rng, 80, 14, 10)
    assert linalg.nullspace(rows, 14) == oracles.bareiss_nullspace(rows, 14)
    rows = dshuffle.constraint_rows(8)
    assert linalg.nullspace(rows, 30) == oracles.bareiss_nullspace(rows, 30)
