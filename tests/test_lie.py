"""Free Lie algebra: bracket, membership tests, Lyndon coordinates."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dskrv import dshuffle, lie, words
from dskrv.lie import NotLieError
from dskrv.poly import Poly, numerators

X = Poly.word("x")
Y = Poly.word("y")


def necklace_dimension(n: int) -> int:
    """Independent necklace count (Moebius sum) of Lie dimension."""
    mu = {}
    for d in range(1, n + 1):
        m, val = d, 1
        for p in range(2, d + 1):
            if m % p == 0:
                m //= p
                if m % p == 0:
                    val = 0
                    break
                val = -val
        mu[d] = val
    return sum(mu[d] * 2 ** (n // d) for d in mu if n % d == 0) // n


def test_bracket_basics():
    assert lie.bracket(X, Y) == Poly.word("xy") - Poly.word("yx")
    assert lie.bracket(X, X) == Poly.zero()
    f, g = lie.random_lie(3, 1), lie.random_lie(4, 2)
    assert lie.bracket(f, g) == -lie.bracket(g, f)


def test_jacobi_identity():
    f, g, h = lie.random_lie(2, 1), lie.random_lie(3, 2), lie.random_lie(2, 3)
    total = (
        lie.bracket(f, lie.bracket(g, h))
        + lie.bracket(g, lie.bracket(h, f))
        + lie.bracket(h, lie.bracket(f, g))
    )
    assert total == Poly.zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_left_bracketing_map_is_multiplication_by_degree(n):
    # the characteristic projector property on Lie elements
    f = lie.random_lie(n, 17)
    assert lie.dynkin_phi(f) == f.scale(n)


def test_is_lie():
    assert lie.is_lie(lie.bracket(X, lie.bracket(X, Y)))
    assert lie.is_lie(Poly.zero())
    assert not lie.is_lie(Poly.word("xy"))
    assert not lie.is_lie(X * Y + Y * X)
    # inhomogeneous: each graded part must be Lie
    assert lie.is_lie(lie.bracket(X, Y) + lie.bracket(X, lie.bracket(X, Y)))
    assert not lie.is_lie(lie.bracket(X, Y) + Poly.word("xxy"))


@pytest.mark.parametrize("n", range(2, 8))
def test_is_lie_cross_check_agrees(n):
    # Lyndon peeling agrees with the two references of this module: the
    # Dynkin projector and shuffle orthogonality over built products
    f = lie.random_lie(n, 5)
    assert lie.is_lie(f)
    assert lie.is_lie(f) == dynkin_verdict(f) == product_sweep_verdict(f)
    g = f + Poly.word("x" * (n - 1) + "y", 1)
    assert lie.is_lie(g) == dynkin_verdict(g) == product_sweep_verdict(g)


def dynkin_verdict(f: Poly) -> bool:
    """Lie membership by the Dynkin criterion phi(f_n) = n f_n on each part."""
    parts = [(n, f.homogeneous_part(n)) for n in f.degrees()]
    return all(n > 0 and lie.dynkin_phi(part) == part.scale(n) for n, part in parts)


def lie_membership_cases(n: int) -> list[Poly]:
    f = lie.random_lie(n, 23)
    g = lie.random_lie(n + 1, 29)
    perturbed = f + Poly.word("x" * (n - 1) + "y", Fraction(1, 3))
    return [
        f,
        f.scale(Fraction(-5, 7)),
        perturbed,
        f + Poly.word("y" * n, 2),
        f + g,
        perturbed + g,
        f + g.scale(Fraction(1, 2)) + Poly.word("x" * (n + 1), 1),
        Poly.one(),
        f + Poly.one().scale(Fraction(3, 2)),
        Poly.zero(),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_is_lie_agrees_with_dynkin_criterion(n):
    cases = lie_membership_cases(n)
    verdicts = [lie.is_lie(f) for f in cases]
    assert verdicts == [dynkin_verdict(f) for f in cases]
    assert verdicts[:2] == [True, True] and verdicts[7:9] == [False, False]
    if n >= 2:
        assert verdicts[2:4] == [False, False]


@pytest.mark.parametrize("n", range(1, 6))
def test_is_lie_three_criteria_agree(n):
    for f in lie_membership_cases(n):
        assert lie.is_lie(f) == dynkin_verdict(f) == product_sweep_verdict(f)


@lru_cache(maxsize=None)
def shuffle_table(n: int) -> tuple:
    return tuple(oracles.shuffle_table(n))


def product_sweep_verdict(f: Poly) -> bool:
    """Lie membership by shuffle orthogonality, swept part by part over built products."""
    for m in f.degrees():
        num, den = numerators(f.homogeneous_part(m))
        if m == 0 or any(oracles.pairing_failures(shuffle_table(m), num, den)):
            return False
    return True


@pytest.mark.parametrize("n", range(2, 9))
def test_cross_check_sweeps_only_pairs_of_the_part_degree(n):
    # the oracle table holds every pair up to degree n, built as products;
    # a pair of total degree below n pairs to 0 with a degree-n part on both
    # sides, so only pairs of the part degree fail, and the dense sweep
    # reports the same first failure and pair count
    table = shuffle_table(n)
    for f in lie_membership_cases(n):
        part = f.homogeneous_part(n)
        num, den = numerators(part)
        for _, (u, v, _), _ in oracles.pairing_failures(table, num, den):
            assert words.degree(u) + words.degree(v) == n
        sweep = dshuffle.coproduct_sweep(dshuffle.shuffle_buckets(num), num, den, n)
        assert sweep == oracles.first_pairing_failure(table, num, den)
        assert sweep["verdict"] == dynkin_verdict(part)
        assert lie.is_lie(f) == product_sweep_verdict(f) == dynkin_verdict(f)


@pytest.mark.parametrize("n", range(1, 9))
def test_lyndon_basis_dimension_matches_necklace_count(n):
    assert lie.lyndon_basis(n).dimension == necklace_dimension(n)
    assert oracles.witt_dimension(n) == necklace_dimension(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_lyndon_basis_words_come_in_increasing_code_order(n):
    # to_coords peels the basis words in this order
    codes = lie.lyndon_basis(n).word_codes
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_lyndon_expansion_leading_term():
    # each basis element is its Lyndon word plus lex-larger words
    basis = lie.lyndon_basis(5)
    for code, expansion in zip(basis.word_codes, basis.expansions):
        assert expansion.coeff(code) == 1
        assert all(w >= code for w in expansion.terms)
        assert lie.is_lie(expansion)


@pytest.mark.parametrize("n", range(1, 8))
def test_coordinate_roundtrip(n):
    f = lie.random_lie(n, 23)
    coords = lie.to_coords(f)
    assert lie.from_coords(coords, n) == f
    assert len(coords) == lie.lyndon_basis(n).dimension


def typed(terms):
    return [(k, type(v), v) for k, v in terms.items()]


def ring_fold(coords, n):
    """sum of c * e over coords and the Lyndon expansions e, without from_coords."""
    expansions = lie.lyndon_basis(n).expansions
    return oracles.fold_sum({}, [(e.terms, c) for e, c in zip(expansions, coords)])


# Few coordinate values, so that the sums of a word cancel and come back;
# 1 first, the value hypothesis draws most.
_FRACTIONS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(0), Fraction(-2, 3)]
)
_COORDINATES = {
    "fraction": _FRACTIONS,
    "int": st.sampled_from([1, -1, 2, 0, -3]),
    "mixed": st.one_of(_FRACTIONS, st.sampled_from([1, -1, 2, 0, -3])),
}


@pytest.mark.parametrize("kind", sorted(_COORDINATES))
@given(data=st.data())
def test_from_coords_matches_the_ring_fold(kind, data):
    # value, int/Fraction type and dict position of every coefficient; from
    # degree 5 on, the expansions share words
    n = data.draw(st.integers(4, 7), label="n")
    dim = lie.lyndon_basis(n).dimension
    coords = data.draw(st.lists(_COORDINATES[kind], min_size=dim, max_size=dim), label="coords")
    assert typed(lie.from_coords(coords, n).terms) == typed(ring_fold(coords, n).terms)


def test_from_coords_moves_a_cancelled_word_behind_the_later_ones():
    # xxyyxy has coefficients 3, -3 and 1 in the Lyndon expansions 3, 4
    # and 5 of degree 6: coordinates 1, 1 cancel it and 1/2 brings it back
    coords = [Fraction(0)] * 9
    coords[3] = coords[4] = Fraction(1)
    coords[5] = Fraction(1, 2)
    f = lie.from_coords(coords, 6)
    assert typed(f.terms) == typed(ring_fold(coords, 6).terms)
    order = [words.str_from_code(w) for w in f.terms]
    assert order.index("xxyyxy") > order.index("xyxxyy")  # a word of expansion 4
    assert f.terms[words.code_from_str("xxyyxy")] == Fraction(1, 2)


def test_to_coords_rejects_non_lie():
    with pytest.raises(NotLieError):
        lie.to_coords(Poly.word("xy"))
    with pytest.raises(NotLieError) as exc:
        lie.to_coords(Poly.word("yx"))
    assert exc.value.residual == Poly.word("yx")


def test_random_lie_is_deterministic_and_lie():
    f = lie.random_lie(5, 42)
    assert f == lie.random_lie(5, 42)
    assert f != lie.random_lie(5, 43)
    assert lie.is_lie(f)
