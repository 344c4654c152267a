"""Depth-indexed polynomial families and their flexion-style operators.

Hand anchors were computed independently by expanding the defining sums
by hand before the module was written; they are frozen here, together
with regression tests for the two sign conventions in the coefficient
law and the reversed-argument identity (both confirmed numerically
against the operator chain).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dskrv import dshuffle, lie, moulds, poly
from dskrv.lie import NotLieError
from dskrv.moulds import CPoly, InexactDivision, Mould
from dskrv.poly import Poly

X = Poly.word("x")
Y = Poly.word("y")


# -- commutative polynomial layer ------------------------------------------------


def test_cpoly_arithmetic():
    p = CPoly.monomial((1, 0)) + CPoly.monomial((0, 1), 2)
    q = CPoly.monomial((1, 0), -1)
    assert (p + q).terms == {(0, 1): 2}
    assert (p - p) == CPoly.zero(2)
    assert (-p).terms == {(1, 0): -1, (0, 1): -2}
    assert p.scale(Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2), (0, 1): 1}
    assert p.degree() == 1 and p.is_homogeneous()
    assert not (CPoly.monomial((2,)) + CPoly.monomial((0,))).is_homogeneous()


def test_cpoly_arity_validation():
    with pytest.raises(ValueError):
        CPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        CPoly.monomial((1, 0)) + CPoly.monomial((1,))


def test_cpoly_subst_linear_forms():
    # substitute u1 -> v1, u2 -> v1 + v2 into u1*u2
    p = CPoly.monomial((1, 1))
    q = p.subst([{0: 1}, {0: 1, 1: 1}], 2)
    assert q.terms == {(2, 0): 1, (1, 1): 1}
    # prefix sums of (u1, u2) recover a polynomial in new variables
    assert p.subst([{0: 1}, {0: 1}], 1).terms == {(2,): 1}
    # the empty form sends a variable to 0
    assert p.subst([{}, {0: 1}], 1) == CPoly.zero(1)


@pytest.mark.parametrize(
    "forms, new_arity",
    [([{0: 1}], 2), ([{0: 1}, {0: 1}, {1: 1}], 2), ([{0: 1}, {2: 1}], 2), ([{0: 1}, {-1: 1}], 2)],
    ids=["too-few-forms", "too-many-forms", "index-past-arity", "negative-index"],
)
def test_cpoly_subst_rejects_malformed_forms(forms, new_arity):
    with pytest.raises(ValueError):
        CPoly.monomial((1, 1)).subst(forms, new_arity)


_coeff = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), arity=st.integers(0, 3), new_arity=st.integers(0, 3))
def test_cpoly_subst_agrees_with_point_evaluation(data, arity, new_arity):
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    p = CPoly(arity, data.draw(st.dictionaries(exps, _coeff, max_size=4)))
    forms = data.draw(
        st.lists(
            st.dictionaries(st.integers(0, new_arity - 1), _coeff.filter(bool), max_size=new_arity)
            if new_arity
            else st.just({}),
            min_size=arity,
            max_size=arity,
        )
    )
    point = data.draw(st.lists(st.integers(-4, 4), min_size=new_arity, max_size=new_arity))
    q = p.subst(forms, new_arity)
    assert q.arity == new_arity
    image = [sum(c * point[j] for j, c in form.items()) for form in forms]
    assert oracles.evaluate(q.terms, point) == oracles.evaluate(p.terms, image)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    arity=st.integers(0, 4),
    new_arity=st.integers(0, 3),
    flaw=st.sampled_from([None, None, None, None, "short", "long", "index"]),
)
def test_cpoly_subst_matches_the_factor_by_factor_expansion(data, arity, new_arity, flaw):
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    p = CPoly(arity, data.draw(st.dictionaries(exps, _coeff, max_size=6)))
    forms = data.draw(
        st.lists(
            # new_arity < arity sends several old variables to one new one
            st.dictionaries(st.integers(0, new_arity - 1), _coeff.filter(bool), max_size=new_arity)
            if new_arity
            else st.just({}),
            min_size=arity,
            max_size=arity,
        )
    )
    if flaw == "short":
        forms = forms[:-1]
    elif flaw == "long":
        forms = forms + [{}]
    elif flaw == "index":
        forms = forms + [{data.draw(st.sampled_from([-1, new_arity])): 1}]
        p = CPoly(arity + 1, {e + (1,): c for e, c in p.terms.items()})
    try:
        expected = oracles.expand_cpoly_subst(p, forms, new_arity)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            p.subst(forms, new_arity)
        assert str(raised.value) == str(exc)
        return
    q = p.subst(forms, new_arity)
    assert q.arity == new_arity and q.terms == expected.terms
    # each coefficient is P_k / D, D the lcm of the denominators of p
    types = {type(c) for c in q.terms.values()}
    if poly.numerators(p)[1] > 1:
        assert types <= {Fraction}
    elif all(type(a) is int for f in forms for a in f.values()):
        assert types <= {int}


def test_cpoly_subst_returns_integral_coefficients_as_ints():
    # D = 1: the integral Fraction(2) comes back as the int numerator 2
    p = CPoly(2, {(1, 0): Fraction(2), (0, 1): 1})
    q = p.subst([{0: 1, 1: 1}, {1: 1}], 2)
    assert q.terms == {(1, 0): 2, (0, 1): 3}
    assert {type(c) for c in q.terms.values()} == {int}


def _count_numerators(mp: pytest.MonkeyPatch) -> list:
    """Record each call subst makes to numerators, which opens its one plan."""
    calls: list = []

    def counted(f):
        calls.append(f)
        return poly.numerators(f)

    mp.setattr(moulds, "numerators", counted)
    return calls


@st.composite
def _rename_forms(draw, arity: int, new_arity: int) -> list[dict]:
    """One form per old variable: {} or {j: 1} on a new variable j not yet taken."""
    free = draw(st.permutations(range(new_arity)))
    forms: list[dict] = []
    for _ in range(arity):
        renamed = free and draw(st.booleans())
        forms.append({free.pop(): draw(st.sampled_from([1, Fraction(1)]))} if renamed else {})
    return forms


@settings(max_examples=300, deadline=None)
@given(data=st.data(), arity=st.integers(0, 4), new_arity=st.integers(0, 4), ints=st.booleans())
def test_cpoly_subst_renames_match_the_expansion(data, arity, new_arity, ints):
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    # int, Fraction and integral Fraction coefficients
    coeff = st.integers(-3, 3) if ints else st.one_of(_coeff, st.integers(-3, 3).map(Fraction))
    p = CPoly(arity, data.draw(st.dictionaries(exps, coeff, max_size=6)))
    forms = data.draw(_rename_forms(arity, new_arity))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_numerators(mp)
        q = p.subst(forms, new_arity)
    assert len(calls) == 1
    expected = oracles.expand_cpoly_subst(p, forms, new_arity)
    assert q.arity == new_arity
    assert list(q.terms.items()) == list(expected.terms.items())
    kind = Fraction if poly.numerators(p)[1] > 1 else int
    assert all(type(c) is kind for c in q.terms.values())


@pytest.mark.parametrize(
    "terms, forms, new_arity",
    [
        ({(1, 2): 3, (2, 0): -1}, [{0: 1}, {0: 1}], 1),
        ({(1, 2): 3, (2, 0): -1}, [{0: -1}, {1: 1}], 2),
        ({(1, 2): 3, (2, 0): -1}, [{1: 2}, {0: 1}], 2),
        # D = 1: the integral Fraction(2) comes back as the int 2
        ({(1, 0): Fraction(2), (0, 1): 1}, [{1: 1}, {0: 1}], 2),
    ],
    ids=["two-old-on-one-new", "coefficient-minus-one", "coefficient-two", "integral-fraction"],
)
def test_cpoly_subst_near_misses_take_the_general_path(monkeypatch, terms, forms, new_arity):
    p = CPoly(2, terms)
    calls = _count_numerators(monkeypatch)
    q = p.subst(forms, new_arity)
    assert len(calls) == 1
    assert q.terms == oracles.expand_cpoly_subst(p, forms, new_arity).terms
    assert {type(c) for c in q.terms.values()} == {int}


def test_cpoly_exact_division_by_variable():
    p = CPoly(2, {(2, 1): 1, (1, 1): -2})
    q = p.div_var(0)
    assert q.terms == {(1, 1): 1, (0, 1): -2}
    with pytest.raises(InexactDivision) as exc:
        CPoly.monomial((0, 1)).div_var(0)
    assert exc.value.remainder


def test_cpoly_exact_division_by_difference():
    # (v1^2 - v2^2) / (v1 - v2) = v1 + v2
    p = CPoly(2, {(2, 0): 1, (0, 2): -1})
    assert p.div_diff(0, 1).terms == {(1, 0): 1, (0, 1): 1}
    with pytest.raises(InexactDivision):
        CPoly.monomial((1, 0)).div_diff(0, 1)


# -- families of a polynomial -----------------------------------------------------


def test_z_family_hand_anchor():
    # ad(x)^2(y) = xxy - 2xyx + yxx: one depth-1 component
    m = moulds.z_family(moulds.ad_power(2))
    assert m.depths() == [1]
    assert m.component(1).terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_u_family_hand_anchors():
    assert moulds.u_family(moulds.ad_power(2)).component(1).terms == {(2,): 1}
    # [[x,y],y] = xyy - 2yxy + yyx has pure depth 2: u2 - u1
    fyy = lie.bracket(lie.bracket(X, Y), Y)
    assert moulds.u_family(fyy).component(2).terms == {(0, 1): 1, (1, 0): -1}


def test_z_family_depth0_and_degree():
    m = moulds.z_family(Poly.word("xxx") + Poly.word("xxy"))
    assert m.component(0).terms == {(3,): 1}
    assert m.component(1).terms == {(2, 0): 1}
    assert m.degree == 3


@pytest.mark.parametrize("n", range(3, 9))
def test_z_family_adopts_what_the_copying_build_makes(n, basis_cache):
    # random Lie elements have int coefficients, basis elements Fractions
    for f in [lie.random_lie(n, s) for s in range(3)] + list(basis_cache(n).basis):
        got = moulds.z_family(f).components
        expected = oracles.z_family_by_copy(f)
        assert list(got) == list(expected)
        for r, p in got.items():
            assert p.arity == r + 1
            assert [(e, type(c), c) for e, c in p.terms.items()] == [
                (e, type(c), c) for e, c in expected[r].terms.items()
            ]


def test_family_of_generator_depths(f3):
    m = moulds.u_family(f3)
    assert m.depths() == [1, 2]
    z = moulds.z_family(f3)
    assert z.depths() == [1, 2]
    # frozen: the depth-1 z-component of f3 is z0^2 - 2 z0 z1 + z1^2
    assert z.component(1).terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


# -- operators -------------------------------------------------------------------


def test_swap_hand_value(f3):
    # swap reads the z-family along reversed difference arguments
    m = moulds.u_family(f3)
    s = moulds.swap(m)
    z = moulds.z_family(f3)
    # depth 1: swap(ma)(v1) must equal vimo(0, v1) as a 1-variable rule
    sub = z.component(1).subst([{}, {0: 1}], 1)
    assert s.component(1) == sub


def test_swap_substitution_is_invertible(f3, f5):
    # u_k -> v_(r-k+1) - v_(r-k+2) is inverted by the reversed prefix
    # sums v_j -> u_1 + ... + u_(r-j+1), so no information is lost
    for f in (f3, f5, lie.random_lie(4, 5)):
        m = moulds.u_family(f)
        s = moulds.swap(m)
        for r in m.depths():
            images = [dict.fromkeys(range(r - j + 1), 1) for j in range(1, r + 1)]
            assert s.component(r).subst(images, r) == m.component(r)


def test_mantar_hand_value():
    # mantar at depth 1 is the identity on even-degree components,
    # negated reversal otherwise; on u1^2 it is the identity
    m = moulds.u_family(moulds.ad_power(2))
    assert moulds.mantar(m) == m
    fyy = lie.bracket(lie.bracket(X, Y), Y)
    m2 = moulds.u_family(fyy)
    # depth 2, reversal of (u2 - u1) is (u1 - u2), sign (-1)^(r-1) = -1
    assert moulds.mantar(m2).component(2).terms == {(0, 1): 1, (1, 0): -1}


def test_push_mould_fixes_depth1_squares():
    m = moulds.u_family(moulds.ad_power(2))
    # push at depth 1: u1 -> -u1, and (-u1)^2 = u1^2
    assert moulds.push_mould(m) == m


def test_push_mould_matches_word_level_push(f3):
    # the operator corresponds to the exponent-tuple rotation on words:
    # compare via invariance of the full family of a push-invariant f
    big_f = poly.subst_linear(poly.negate_y(f3), -X - Y, Y)
    assert poly.is_push_invariant(big_f)


def test_teru_is_exact_on_lie_families(f3, f5):
    for f in (f3, f5, lie.random_lie(5, 3)):
        m = moulds.u_family(f)
        t = moulds.teru(m)  # raises InexactDivision if division fails
        assert isinstance(t, Mould)


def test_teru_depth1_is_identity(f3):
    m = moulds.u_family(f3)
    assert moulds.teru(m).component(1) == m.component(1)


# -- the right-normed coefficient law ----------------------------------------------


def test_ad_power_words():
    assert moulds.ad_power(0) == Y
    assert moulds.ad_power(1) == lie.bracket(X, Y)
    assert moulds.ad_power(2) == lie.bracket(X, lie.bracket(X, Y))


def test_ad_basis_coefficients_hand_anchor():
    fyy = lie.bracket(lie.bracket(X, Y), Y)
    coeffs = {c: b for c, (b, _) in moulds.ad_expansion(fyy).items()}
    assert coeffs == {(1, 0): 1, (0, 1): -1}
    assert oracles.poly_from_ad_basis(coeffs) == fyy


@pytest.mark.parametrize("n", range(3, 7))
def test_ad_basis_roundtrip_on_random_lie(n):
    f = lie.random_lie(n, 31)
    coeffs = {c: b for c, (b, _) in moulds.ad_expansion(f).items()}
    assert oracles.poly_from_ad_basis(coeffs) == f


def test_ad_basis_rejects_non_lie():
    with pytest.raises(NotLieError):
        {c: b for c, (b, _) in moulds.ad_expansion(Poly.word("xy")).items()}


def test_coefficient_law_carries_parity_sign():
    # regression: the u-family coefficient of u^c is (-1)^(sum c) times
    # the right-normed-basis coefficient b_c, NOT b_c itself.  For
    # [[x,y],y] the basis coefficients are {(1,0): 1, (0,1): -1} while
    # the u-family is u2 - u1: the (1,0) entry flips sign, (0,1) does not.
    fyy = lie.bracket(lie.bracket(X, Y), Y)
    b = {c: b for c, (b, _) in moulds.ad_expansion(fyy).items()}
    m = moulds.u_family(fyy).component(2)
    for c, bc in b.items():
        expected = bc if sum(c) % 2 == 0 else -bc
        assert m.terms.get(c, 0) == expected
    # and the unsigned law would be wrong here
    assert m.terms.get((1, 0)) != b[(1, 0)]


@pytest.mark.parametrize("n", range(3, 7))
def test_mantar_fixes_families_of_lie_elements(n):
    basis = lie.lyndon_basis(n)
    for expansion in basis.expansions:
        rep = moulds.mantar_fixed_check(expansion)
        assert rep["mantar_fixes"], (n, expansion)
        assert rep["coefficients_match"]
        assert rep["round_trip"]


def test_mantar_does_not_fix_generic_families():
    # a non-Lie polynomial generically breaks the fixed-point property
    m = moulds.u_family(Poly.word("xyy") + Poly.word("yxy"))
    assert moulds.mantar(m) != m
    # and the checker refuses non-Lie input outright
    with pytest.raises(NotLieError):
        moulds.mantar_fixed_check(Poly.word("xyy") + Poly.word("yxy"))


# -- structural rules --------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 7))
def test_negation_rule_holds_for_any_homogeneous_polynomial(n):
    # parity rule of the z-family under argument negation is formal
    for seed in range(5):
        assert moulds.negation_rule_check(lie.random_lie(n, seed))
    bag = Poly.from_pairs([("x" * (n - 1) + "y", 3), ("y" * n, -2), ("xy" + "x" * (n - 2), 1)])
    assert moulds.negation_rule_check(bag)


@pytest.mark.parametrize("n", range(3, 7))
def test_translation_rule_needs_lie(n):
    for seed in range(5):
        assert moulds.translation_rule_check(lie.random_lie(n, seed))
    # generic non-Lie inputs fail the rule
    failures = sum(
        not moulds.translation_rule_check(
            lie.random_lie(n, s) + Poly.word("x" * (n - 1) + "y", 1)
        )
        for s in range(5)
    )
    assert failures > 0


# -- the exchange identity ----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 6])
def test_exchange_identity_on_basis(n, basis_cache):
    for f in basis_cache(n).basis:
        rep = moulds.ecalle_identity_check(f)
        assert rep["verdict"], rep
        assert all(rep["per_depth"].values())
        assert rep["witness_depth"] is None


def test_exchange_identity_fails_on_generic_lie():
    rep = moulds.ecalle_identity_check(lie.random_lie(5, 3), require_ds=False)
    assert not rep["verdict"]
    assert rep["witness_depth"] == 2  # frozen for this seed


def test_exchange_identity_requires_membership_by_default():
    with pytest.raises(ValueError):
        moulds.ecalle_identity_check(lie.random_lie(5, 3))


# -- closed forms of both identity sides -------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_bridge_forms_match_operator_chain_on_random_lie(seed):
    # both closed forms reproduce the operator compositions exactly;
    # this pins the inner sign of the reversed-argument form (a minus
    # there breaks every case below)
    f = lie.random_lie(5, seed)
    rep = moulds.ecalle_bridge_check(f)
    assert rep["lhs_match"], (seed, rep)
    assert rep["rhs_match"], (seed, rep)


def test_bridge_identity_agrees_with_exchange_identity(f3, basis_cache):
    for f in [f3] + list(basis_cache(5).basis):
        rep = moulds.ecalle_bridge_check(f)
        assert rep["lhs_match"] and rep["rhs_match"] and rep["identity"]


# -- antipalindromy via families ----------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_antipal_bridge_on_basis(n, basis_cache):
    for f in basis_cache(n).basis:
        rep = moulds.antipal_bridge_check(f)
        assert rep["verdict"], rep
        assert rep["formula_matches_direct_family"]
        assert rep["agrees_with_direct_predicate"]


def test_antipal_bridge_check_makes_no_substitution(monkeypatch):
    # the bridge check reads its renames and drops straight off the
    # exponent tuples; the prefix sums of u_family go through subst
    f = lie.random_lie(6, 0)
    calls = _count_numerators(monkeypatch)
    moulds.antipal_bridge_check(f)
    assert len(calls) == 0
    moulds.u_family(f)
    assert len(calls) > 0


@pytest.mark.parametrize("seed", range(8))
def test_antipal_bridge_formula_is_formal(seed):
    # the closed form equals the family of f_x + f_y for every Lie f,
    # and the verdict always matches the direct predicate
    f = lie.random_lie(5, seed)
    rep = moulds.antipal_bridge_check(f)
    assert rep["formula_matches_direct_family"]
    assert rep["agrees_with_direct_predicate"]
    fx, fy = poly.decompose_right(f)
    assert rep["verdict"] == poly.is_antipalindromic(fx + fy)


def _assert_bridge_matches_the_subst_reference(f):
    assert moulds.antipal_bridge_check(f) == oracles.antipal_bridge_by_subst(f)


@pytest.mark.parametrize("n", range(2, 9))
def test_antipal_bridge_check_matches_the_subst_reference_on_random_lie(n):
    # per_depth included; the Fraction multiples carry Fraction coefficients
    for seed in range(6):
        f = lie.random_lie(n, seed)
        _assert_bridge_matches_the_subst_reference(f)
        _assert_bridge_matches_the_subst_reference(f.scale(Fraction(-5, 3)))


@pytest.mark.parametrize("n", range(3, 11))
def test_antipal_bridge_check_matches_the_subst_reference_on_ds_basis(n, basis_cache):
    for f in basis_cache(n).basis:
        _assert_bridge_matches_the_subst_reference(f)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.dictionaries(st.integers(1 << n, (2 << n) - 1), _coeff)  # degree n codes
    )
)
@settings(max_examples=150)
def test_antipal_bridge_check_matches_the_subst_reference_off_lie(terms):
    # homogeneous polynomials that need not be Lie: most verdicts are False
    f = Poly(terms)
    if f:
        _assert_bridge_matches_the_subst_reference(f)
