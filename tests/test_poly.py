"""Noncommutative polynomials: arithmetic, involutions, reconstruction maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dskrv import poly, words
from dskrv.poly import Poly


def P(*pairs):
    return Poly.from_pairs(pairs)


def test_zero_terms_are_dropped():
    f = Poly({words.code_from_str("xy"): 0})
    assert f == Poly.zero()
    assert not f
    assert (P(("xy", 1)) - P(("xy", 1))) == Poly.zero()


def test_immutability():
    f = P(("xy", 1))
    with pytest.raises(AttributeError):
        f.terms = {}


def test_addition_and_scaling():
    f = P(("xy", 1), ("yx", -1))
    g = P(("xy", Fraction(1, 2)))
    assert f + g == P(("xy", Fraction(3, 2)), ("yx", -1))
    assert f.scale(Fraction(1, 3)) == P(("xy", Fraction(1, 3)), ("yx", Fraction(-1, 3)))
    assert 2 * f == f + f
    assert -f == f.scale(-1)


def test_multiplication_is_concatenation():
    f = P(("x", 1), ("y", 2))
    g = P(("xy", 1))
    assert f * g == P(("xxy", 1), ("yxy", 2))
    assert Poly.one() * f == f == f * Poly.one()
    # bilinearity against an explicit expansion
    h = P(("x", 1), ("y", -1))
    lhs = (f + h) * g
    assert lhs == f * g + h * g


def test_coeff_and_pairing():
    f = P(("xy", 3), ("yx", Fraction(-1, 2)))
    assert f.coeff("xy") == 3
    assert f.coeff("xx") == 0
    with pytest.raises(ValueError):
        f.coeff("")
    g = P(("xy", 2), ("xx", 7))
    assert f.pairing(g) == 6


def test_homogeneous_parts_and_depths():
    f = P(("x", 1), ("xy", 2), ("yy", 3))
    assert not f.is_homogeneous()
    assert f.homogeneous_part(2) == P(("xy", 2), ("yy", 3))
    assert f.degrees() == [1, 2]
    assert f.depth_part(1) == P(("y", 0), ("xy", 2)) + P(("x", 1)) - P(("x", 1))
    assert f.depth_part(2) == P(("yy", 3))
    assert sorted(f.depths()) == [0, 1, 2]


def test_string_rendering():
    f = P(("xxy", 1), ("xyx", -2), ("yxx", Fraction(1, 3)))
    assert str(f) == "xxy - 2*xyx + 1/3*yxx"
    assert str(Poly.zero()) == "0"


def test_reversal_involution():
    f = P(("xxy", 1), ("xyx", -2))
    assert poly.anti(f) == P(("yxx", 1), ("xyx", -2))
    assert poly.anti(poly.anti(f)) == f


def test_push_operator():
    # push rotates the exponent tuple of every word
    f = P(("xxyxy", 5))
    assert poly.push(f) == P(("yxxyx", 5))


def test_swap_xy_and_negate_y():
    f = P(("xxy", 1), ("xyx", -2))
    assert poly.swap_xy(f) == P(("yyx", 1), ("yxy", -2))
    assert poly.negate_y(f) == P(("xxy", -1), ("xyx", 2))
    g = P(("xyy", 1))  # two y letters: sign +1
    assert poly.negate_y(g) == g


def test_pi_y_keeps_words_ending_in_y():
    f = P(("xxy", 1), ("xyx", -2), ("yxy", 3))
    assert poly.pi_y(f) == P(("xxy", 1), ("yxy", 3))


def test_partial_x_deletes_one_x_in_all_ways():
    assert poly.partial_x(P(("xxy", 1))) == P(("xy", 2))
    assert poly.partial_x(P(("xyx", 1))) == P(("xy", 1), ("yx", 1))
    assert poly.partial_x(Poly.word("x")) == Poly.one()
    assert poly.partial_x(Poly.word("y")) == Poly.zero()
    # Leibniz rule on a product of single words
    f, g = Poly.word("xy"), Poly.word("yx")
    assert poly.partial_x(f * g) == poly.partial_x(f) * g + f * poly.partial_x(g)


def test_subst_linear():
    x, y = Poly.word("x"), Poly.word("y")
    f = P(("xy", 1))
    # x -> -x-y, y -> y on the word xy
    image = poly.subst_linear(f, -x - y, y)
    assert image == P(("xy", -1), ("yy", -1))
    # substituting the identity is a no-op
    g = P(("xxy", 2), ("yxy", -1))
    assert poly.subst_linear(g, x, y) == g
    with pytest.raises(ValueError, match="linear"):
        poly.subst_linear(g, x * y, y)
    with pytest.raises(ValueError, match="empty word"):
        poly.subst_linear(Poly.one() + g, -x - y, y)


def test_subst_linear_holds_only_reachable_words():
    # a pass over every word of length 40 would need 2^40 slots
    x, y = Poly.word("x"), Poly.word("y")
    y40 = Poly.word("y" * 40)
    assert poly.subst_linear(y40, -x - y, y) == y40
    xy39 = Poly.word("x" + "y" * 39)
    assert poly.subst_linear(xy39, -x - y, y) == -xy39 - y40


def test_right_and_left_decomposition():
    f = P(("xxy", 1), ("xyx", -2), ("yxx", 1))
    fx, fy = poly.decompose_right(f)
    assert fx == P(("xy", -2), ("yx", 1))
    assert fy == P(("xx", 1))
    assert fx * Poly.word("x") + fy * Poly.word("y") == f
    gx, gy = poly.decompose_left(f)
    assert Poly.word("x") * gx + Poly.word("y") * gy == f


def test_reconstruction_maps_invert_the_y_components(f3):
    # frozen: the weight-3 generator is recovered from either one-sided
    # y-component by the corresponding section
    assert poly.s_map(poly.decompose_right(f3)[1]) == f3
    assert poly.s_prime_map(poly.decompose_left(f3)[1]) == f3


def test_palindromy_predicates():
    # degree 3: palindromic means f = +anti(f), antipalindromic f = -anti(f)
    f = P(("xxy", 1), ("yxx", 1))
    assert poly.is_palindromic(f)
    assert not poly.is_antipalindromic(f)
    g = P(("xxy", 1), ("yxx", -1))
    assert poly.is_antipalindromic(g)
    # degree 2 flips the signs: xy + yx is antipalindromic there
    h = P(("xy", 1), ("yx", 1))
    assert poly.is_antipalindromic(h)
    assert poly.is_palindromic(P(("xy", 1), ("yx", -1)))
    assert poly.is_palindromic(Poly.zero()) and poly.is_antipalindromic(Poly.zero())


def test_push_invariance_and_push_constant():
    orbit = P(("xxyxy", 1), ("yxxyx", 1), ("xyyxx", 1))
    assert poly.is_push_invariant(orbit)
    # orbit sums differ between this orbit (3) and untouched words (0)
    assert poly.push_constant(orbit) is None
    # xx contributes 1 on its singleton orbit; the orbit {xy, yx} is
    # listed twice for xy so its sum is also 1
    assert poly.push_constant(P(("xx", 1), ("xy", 1))) == 1
    # a nonzero coefficient on the pure-y word disqualifies f outright
    assert poly.push_constant(P(("xx", 1), ("xy", 1), ("yy", 2))) is None


def test_json_roundtrip():
    f = P(("xxy", Fraction(1, 3)), ("xyx", -2))
    obj = poly.poly_to_json(f)
    assert obj["degree"] == 3
    assert {"word": "xxy", "coeff": "1/3"} in obj["terms"]
    assert poly.poly_from_json(obj) == f


# Few keys, so that steps collide, cancel and re-add keys.
_keys = st.integers(2, 9)
_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(-2, 2, max_denominator=4).filter(bool),
)
_scalars = st.one_of(st.sampled_from([0, 1, -1, Fraction(1), Fraction(0)]), _coeffs)
_sparse = st.dictionaries(_keys, _coeffs, max_size=6)


def typed(terms):
    return [(k, type(v), v) for k, v in terms.items()]


@given(st.data())
def test_accumulate_matches_the_ring_fold(data):
    start = data.draw(_sparse, label="start")
    terms = dict(start)
    steps = []
    for _ in range(data.draw(st.integers(0, 8), label="steps")):
        if terms and data.draw(st.booleans(), label="cancel"):
            # cancel some keys exactly, then add some of them back
            keys = data.draw(st.lists(st.sampled_from(list(terms)), min_size=1, unique=True))
            new = [
                ({k: terms[k] for k in keys}, -1),
                (data.draw(st.dictionaries(st.sampled_from(keys), _coeffs)), data.draw(_scalars)),
            ]
        else:
            new = [(data.draw(_sparse), data.draw(_scalars))]
        for src, c in new:
            assert poly.accumulate(terms, src.items(), c) is terms
        steps += new
    assert typed(terms) == typed(oracles.fold_sum(start, steps).terms)


_X, _Y = Poly.word("x"), Poly.word("y")
# (x image, y image): the substitution of the injection, the identity, the
# swap, a shear, a scaling by a Fraction and an int, a map with Fraction
# entries only, and two zero images.  On an input whose coefficients are all
# int or all Fraction, each of these gives every output coefficient one type
# whatever the order of the sums.
_SUBSTITUTIONS = (
    (-_X - _Y, _Y),
    (_X, _Y),
    (_Y, _X),
    (_X + _Y, _X - _Y),
    (_X.scale(Fraction(1, 2)), _Y.scale(3)),
    (_X.scale(Fraction(1, 2)) - _Y.scale(Fraction(1, 3)), (_X + _Y).scale(Fraction(1, 3))),
    (Poly.zero(), _Y),
    (_X, Poly.zero()),
)
_KIND_COEFFS = {
    "int": st.integers(-3, 3).filter(bool),
    "fraction": st.fractions(-2, 2, max_denominator=4).filter(bool),
    "mixed": _coeffs,
}


def _codes(low: int, high: int):
    """Word codes of the degrees low..high."""
    return st.integers(low, high).flatmap(lambda n: st.integers(1 << n, (2 << n) - 1))


@given(st.data())
def test_subst_linear_matches_the_word_by_word_expansion(data):
    kind = data.draw(st.sampled_from(sorted(_KIND_COEFFS)), label="kind")
    if data.draw(st.booleans(), label="homogeneous"):
        n = data.draw(st.integers(1, 6), label="degree")
        codes = _codes(n, n)
    else:
        codes = _codes(1, 6)
    f = Poly(data.draw(st.dictionaries(codes, _KIND_COEFFS[kind], min_size=1, max_size=8)))
    for images in _SUBSTITUTIONS:
        got = poly.subst_linear(f, *images)
        want = oracles.expand_substitution(f, *images)
        assert got == want
        assert list(got.terms) == sorted(got.terms)
        if kind != "mixed":
            assert typed(got.terms) == sorted(typed(want.terms))


def _assert_section_maps_match_the_fold(f):
    for right, section in ((True, poly.s_map), (False, poly.s_prime_map)):
        assert typed(section(f).terms) == typed(oracles.section_map_fold(f, right).terms)


@given(st.data())
def test_section_maps_match_the_fraction_fold(data):
    kind = data.draw(st.sampled_from(sorted(_KIND_COEFFS)), label="kind")
    if data.draw(st.booleans(), label="homogeneous"):
        n = data.draw(st.integers(1, 6), label="degree")
        codes = _codes(n, n)
    else:
        codes = _codes(0, 6)
    f = Poly(data.draw(st.dictionaries(codes, _KIND_COEFFS[kind], max_size=8)))
    _assert_section_maps_match_the_fold(f)


def test_section_maps_match_the_fraction_fold_on_edge_cases(f3):
    fx, fy = poly.decompose_right(f3)
    cases = [
        Poly.zero(),
        Poly.one(),
        _X,
        _Y.scale(Fraction(-2, 3)),
        _X.scale(Fraction(1, 2)) + _Y.scale(3),
        fx,
        fy.scale(Fraction(5, 4)),
        fy + _X + Poly.one(),
    ]
    for f in cases:
        _assert_section_maps_match_the_fold(f)
