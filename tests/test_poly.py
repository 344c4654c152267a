"""Noncommutative polynomials: arithmetic, involutions, reconstruction maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dskrv import lie, poly, words
from dskrv.poly import Poly


def P(*pairs):
    return Poly(poly.accumulate({}, ((words.as_code(w), c) for w, c in pairs)))


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
    # exponent notation, the form text reports print
    f = P(("xxy", 1), ("xyx", -2), ("yxx", Fraction(1, 3)))
    assert str(f) == "x^2 y - 2 x y x + 1/3 y x^2"
    assert repr(f) == "<Poly x^2 y - 2 x y x + 1/3 y x^2>"
    assert str(Poly.zero()) == "0"
    assert str(Poly.one()) == "1"
    # the empty word prints as its coefficient alone
    assert str(Poly.one().scale(3) + P(("xy", 1))) == "3 + x y"
    assert str(P(("xy", -1), ("", Fraction(-1, 2)))) == "-1/2 -  x y"
    # a coefficient -1 prints as "- " before its word, so after the lead it
    # leaves two spaces; text reports have always had that form
    assert str(P(("yxy", -1), ("xxxy", Fraction(-3, 2)), ("yyyx", -1))) == (
        "- y x y - 3/2 x^3 y -  y y y x"
    )
    assert str(P(("x", -2), ("xxyxxx", Fraction(5, 7)))) == "-2 x + 5/7 x^2 y x^3"


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


def test_subst_linear_takes_numerators_only_of_a_fraction_input(monkeypatch):
    # int f and int images need no numerators; one Fraction coefficient,
    # even an integral one, runs the butterfly on the numerators of f and
    # makes every output coefficient a Fraction
    calls = []
    numerators = poly.numerators
    monkeypatch.setattr(poly, "numerators", lambda f: calls.append(f) or numerators(f))
    x, y = Poly.word("x"), Poly.word("y")
    f = Poly({words.code_from_str("xy"): 2, words.code_from_str("yx"): -1})
    got = poly.subst_linear(f, -x - y, y)
    assert calls == []
    assert typed(got.terms) == sorted(typed(oracles.expand_substitution(f, -x - y, y).terms))
    assert list(got.terms) == sorted(got.terms)
    g = f + Poly.word("yy", Fraction(2))
    got = poly.subst_linear(g, -x - y, y)
    assert calls == [g]
    assert got == oracles.expand_substitution(g, -x - y, y)
    assert type(got.terms[words.code_from_str("yy")]) is Fraction


def test_integral_of_an_all_int_polynomial_is_itself_with_the_int_unit():
    f = P(("xy", 2), ("yx", -1))
    p, u = poly.integral(f)
    assert p is f
    assert u == 1 and type(u) is int
    zero = Poly.zero()
    p, u = poly.integral(zero)
    assert p is zero and type(u) is int and u == 1


def test_integral_of_integral_fractions_has_a_fraction_unit():
    # Fraction(3) has denominator 1, yet the unit is the Fraction 1, so a
    # value times u is a Fraction, as the computation on f gives
    p, u = poly.integral(P(("xy", Fraction(3))))
    assert typed(p.terms) == [(words.code_from_str("xy"), int, 3)]
    assert u == 1 and type(u) is Fraction


def test_integral_of_a_mixed_polynomial_scales_by_the_lcm():
    f = P(("xy", Fraction(1, 2)), ("yx", 3), ("xx", Fraction(-2, 3)))
    p, u = poly.integral(f)
    assert type(p) is Poly
    assert typed(p.terms) == typed({w: int(c * 6) for w, c in f.terms.items()})
    assert u == Fraction(1, 6) and type(u) is Fraction
    assert p.scale(u) == f


def test_integral_keeps_the_kind_of_its_input():
    from dskrv.derivations import CyclicPoly
    from dskrv.moulds import CPoly

    c = CPoly(3, {(1, 0, 2): Fraction(1, 4), (0, 1, 0): 2})
    p, u = poly.integral(c)
    assert type(p) is CPoly and p.arity == 3
    assert p.terms == {(1, 0, 2): 1, (0, 1, 0): 8} and u == Fraction(1, 4)
    cyc = CyclicPoly({words.code_from_str("xy"): Fraction(2, 3)})
    p, u = poly.integral(cyc)
    assert type(p) is CyclicPoly
    assert p.terms == {words.code_from_str("xy"): 2} and u == Fraction(1, 3)


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


@pytest.mark.parametrize(
    "c", [0, 7, -7, Fraction(0), Fraction(4, 1), Fraction(-6, 1), Fraction(1, 3), Fraction(-5, 12), True]
)
def test_coeff_to_str_matches_fraction_formula(c):
    q = Fraction(c)
    expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert poly.coeff_to_str(c) == expected


def test_coeff_to_str_rejects_none():
    with pytest.raises(TypeError):
        poly.coeff_to_str(None)


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
# entries only, two zero images, an int map that fixes y, and three maps with
# a zero entry next to a Fraction entry.  On an input whose coefficients are
# all int or all Fraction, each of these gives every output coefficient one
# type whatever the order of the sums.
_SUBSTITUTIONS = (
    (-_X - _Y, _Y),
    (_X, _Y),
    (_Y, _X),
    (_X + _Y, _X - _Y),
    (_X.scale(Fraction(1, 2)), _Y.scale(3)),
    (_X.scale(Fraction(1, 2)) - _Y.scale(Fraction(1, 3)), (_X + _Y).scale(Fraction(1, 3))),
    (Poly.zero(), _Y),
    (_X, Poly.zero()),
    (_X.scale(2) - _Y.scale(3), _Y),
    (_Y.scale(Fraction(1, 2)), _X),
    (_Y.scale(Fraction(1, 2)), _X + _Y),
    (_X + _Y.scale(Fraction(1, 2)), _X.scale(3)),
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
    _assert_substitutions_match_the_expansion(f, kind == "mixed")


def test_subst_linear_keeps_int_shares_beside_a_cancelled_fraction_sum():
    # under (y/2, x + y) the Fraction shares of an intermediate word cancel;
    # a pass that kept the Fraction(0) would turn int outputs into Fractions
    _assert_substitutions_match_the_expansion(Poly({32: 2, 40: -1, 63: 1}), False)


def _assert_substitutions_match_the_expansion(f: Poly, mixed: bool) -> None:
    for images in _SUBSTITUTIONS:
        got = poly.subst_linear(f, *images)
        want = oracles.expand_substitution(f, *images)
        assert got == want
        assert list(got.terms) == sorted(got.terms)
        if Fraction in map(type, f.terms.values()) and mixed:
            # one Fraction coefficient of f makes every output a Fraction
            assert all(type(c) is Fraction for c in got.terms.values())
        else:
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


@given(st.data())
def test_section_numerators_are_the_section_maps(data):
    kind = data.draw(st.sampled_from(sorted(_KIND_COEFFS)), label="kind")
    codes = _codes(0, 6) if data.draw(st.booleans(), label="inhomogeneous") else _codes(5, 5)
    f = Poly(data.draw(st.dictionaries(codes, _KIND_COEFFS[kind], max_size=8)))
    for right, section in ((True, poly.s_map), (False, poly.s_prime_map)):
        num, den = poly._section_numerators(f, right)
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in num.values())
        want = oracles.section_map_fold(f, right)
        assert typed({w: Fraction(c, den) for w, c in num.items()}) == typed(want.terms)
        assert typed(section(f).terms) == typed(want.terms)


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


def _small_poly(data, label):
    """A Poly on a few short words: homogeneous or not, int, Fraction or mixed."""
    kind = data.draw(st.sampled_from(sorted(_KIND_COEFFS)), label=f"{label} kind")
    if data.draw(st.booleans(), label=f"{label} homogeneous"):
        n = data.draw(st.integers(0, 3), label=f"{label} degree")
        codes = _codes(n, n)
    else:
        codes = _codes(0, 3)
    return Poly(data.draw(st.dictionaries(codes, _KIND_COEFFS[kind], max_size=6), label=label))


@given(st.data())
def test_degree_queries_read_the_code_order(data):
    f = _small_poly(data, "f") + _small_poly(data, "g")
    degrees = sorted({words.degree(w) for w in f.terms})
    assert f.degree() == (degrees[-1] if degrees else None)
    assert f.is_homogeneous() is (len(degrees) <= 1)
    assert f.degrees() == degrees
    for n in range(-2, 6):
        part = f.homogeneous_part(n)
        assert typed(part.terms) == typed({w: c for w, c in f.terms.items() if words.degree(w) == n})


@given(st.data())
def test_product_and_bracket_keep_values_types_and_order(data):
    f, g = _small_poly(data, "f"), _small_poly(data, "g")
    assert typed((f * g).terms) == typed(oracles.concat_fold(f, g))
    assert typed(lie.bracket(f, g).terms) == typed(oracles.bracket_fold(f, g))
    assert typed(lie.bracket(f, g).terms) == typed((f * g - g * f).terms)


def test_bracket_of_two_inhomogeneous_polynomials_keeps_the_difference_order():
    # xy of gf has two factorizations, x.y and xy.1; subtracting them one
    # at a time from fg would cancel it on the way, move it last and make
    # it an int
    f = P(("xx", -1), ("y", -1), ("xy", Fraction(1, 2)))
    g = P(("y", -1), ("", 2), ("x", 2))
    want = oracles.bracket_fold(f, g)
    assert typed(lie.bracket(f, g).terms) == typed(want)
    assert typed(want)[2] == (words.code_from_str("xy"), Fraction, 2)


_LETTERS = [_X, _Y, -_X, _Y.scale(2), _X.scale(Fraction(1)), _Y.scale(Fraction(-1, 2))]


@given(st.data())
def test_bracket_with_a_letter_keeps_values_types_and_order(data):
    # x and y with coefficient int 1 take the letter path; the others do not
    f = _small_poly(data, "f")
    letter = data.draw(st.sampled_from(_LETTERS), label="letter")
    for a, b in ((f, letter), (letter, f)):
        want = (a * b - b * a).terms
        assert typed(lie.bracket(a, b).terms) == typed(want) == typed(oracles.bracket_fold(a, b))


def _symmetric_poly(data):
    """A Poly of one degree, made anti- or push-symmetric (or not) on purpose."""
    kind = data.draw(st.sampled_from(sorted(_KIND_COEFFS)), label="kind")
    n = data.draw(st.integers(1, 6), label="degree")
    f = Poly(data.draw(st.dictionaries(_codes(n, n), _KIND_COEFFS[kind], max_size=6)))
    how = data.draw(st.sampled_from(["plain", "anti+", "anti-", "push"]), label="symmetrize")
    if how == "anti+":
        f = f + poly.anti(f)
    elif how == "anti-":
        f = f - poly.anti(f)
    elif how == "push":  # the sum over each push orbit, repeats included
        f = Poly(poly.accumulate({}, ((v, c) for w, c in f.terms.items() for v in words.push_orbit(w))))
    if f and data.draw(st.booleans(), label="perturb"):
        f = f + Poly.word(data.draw(st.sampled_from(sorted(f.terms))), data.draw(_KIND_COEFFS[kind]))
    return f


_PREDICATES = [
    (poly.is_palindromic, oracles.is_palindromic_by_image),
    (poly.is_antipalindromic, oracles.is_antipalindromic_by_image),
    (poly.is_push_invariant, oracles.is_push_invariant_by_image),
]


def _outcome(predicate, f):
    try:
        return predicate(f)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(st.data())
def test_symmetry_predicates_match_the_image_comparison(data):
    f = _symmetric_poly(data)
    if data.draw(st.booleans(), label="inhomogeneous"):
        f = f + _small_poly(data, "g")
    for predicate, oracle in _PREDICATES:
        assert _outcome(predicate, f) == _outcome(oracle, f)


def test_symmetry_predicates_raise_as_the_image_comparison():
    cases = [
        Poly.one(),  # the empty word
        Poly.one().scale(Fraction(1, 2)),
        P(("xy", 1), ("x", 1)),  # not homogeneous
        P(("", 1), ("y", 1)),
    ]
    for f in cases:
        for predicate, oracle in _PREDICATES:
            outcome = _outcome(predicate, f)
            assert outcome == _outcome(oracle, f) and outcome[0] == "ValueError"
    assert _outcome(poly.is_push_invariant, Poly.one()) == ("ValueError", "push is not defined on the empty word")
    assert _outcome(poly.is_antipalindromic, Poly.one()) == ("ValueError", "anti is not defined on the empty word")
