"""Tangential derivations, traces, specialness, and the weight-preserving
embedding of the double shuffle algebra into the Kashiwara-Vergne algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from dskrv import derivations, dshuffle, lie, linalg, poly, words
from dskrv.derivations import TangentialDerivation
from dskrv.lie import NotLieError
from dskrv.poly import Poly

X = Poly.word("x")
Y = Poly.word("y")


def P(*pairs):
    return Poly(poly.accumulate({}, ((words.as_code(w), c) for w, c in pairs)))


# -- trace space ----------------------------------------------------------------


def test_trace_identifies_rotations():
    # frozen hand value: xy and yx are the same cyclic word
    assert not derivations.trace(P(("xy", 1), ("yx", -1)))
    t = derivations.trace(P(("xxy", 1), ("yxx", 2), ("xyx", 3)))
    assert t.coeff("xxy") == 6
    assert t.coeff("xyy") == 0


def test_cyclic_poly_arithmetic():
    a = derivations.trace(P(("xy", 1)))
    b = derivations.trace(P(("yx", 2)))
    assert (a + b).coeff("xy") == 3
    assert (a - b).coeff("xy") == -1
    assert a.scale(5).coeff("yx") == 5
    assert bool(a) and not (a - a)


def test_mixed_trace_frozen_weight3():
    # tr((x+y)^3 - x^3 - y^3) = 3 (xxy) + 3 (xyy) as cyclic words
    mt = derivations.mixed_trace(3)
    assert mt.coeff("xxy") == 3
    assert mt.coeff("xyy") == 3
    assert mt.coeff("xxx") == 0 and mt.coeff("yyy") == 0
    # all eight degree-3 words collapse onto those cyclic classes
    mt4 = derivations.mixed_trace(4)
    assert mt4.coeff("xxxy") == 4 and mt4.coeff("xyxy") == 2 and mt4.coeff("xxyy") == 4


# -- tangential derivations ------------------------------------------------------


def test_apply_is_a_derivation(f3):
    d = derivations.ds_to_krv(f3)
    g, h = Poly.word("xy"), Poly.word("yxx")
    assert d.apply(g * h) == d.apply(g) * h + g * d.apply(h)
    assert d.apply(X) == lie.bracket(X, d.G)
    assert d.apply(Y) == lie.bracket(Y, d.F)


def test_constructor_validates_lie_inputs():
    with pytest.raises(NotLieError):
        TangentialDerivation(Poly.word("xy"), Poly.zero())
    with pytest.raises(ValueError):
        TangentialDerivation(lie.random_lie(3, 1), lie.random_lie(4, 1))


def test_special_residual_and_commutator(f3, f5):
    da = derivations.ds_to_krv(f3)
    db = derivations.ds_to_krv(f5)
    assert da.is_special() and db.is_special()
    assert da.special_residual() == Poly.zero()
    c = da.commutator(db)
    assert c.is_special()
    assert c.degree == 8
    # commutator is antisymmetric
    assert c.F == -db.commutator(da).F and c.G == -db.commutator(da).G


def test_derivation_json_roundtrip(f3):
    d = derivations.ds_to_krv(f3)
    obj = d.to_json()
    assert obj["special"] is True
    assert obj["traceA"] == "-1/3"


# -- specialness equivalences -----------------------------------------------------


def test_partner_constructions_agree_on_special_inputs(f3):
    # the change of variables applies to the y-negated element
    big_f = poly.subst_linear(poly.negate_y(f3), -X - Y, Y)
    g1 = derivations.solve_partner(big_f)
    g2 = derivations.partner_by_elimination(big_f)
    assert g2 is not None and g1 == g2
    assert not (lie.bracket(X, g1) + lie.bracket(Y, big_f))


def _typed(p):
    """Values, types and dict order of a Poly's terms, or None."""
    return None if p is None else [(k, type(c), c) for k, c in p.terms.items()]


def _assert_partner_matches_the_solve(F):
    got = derivations.partner_by_elimination(F)
    assert _typed(got) == _typed(oracles.partner_by_solve(F))
    # given R = [F, y], it solves the same equation
    assert _typed(derivations.partner_by_elimination(F, lie.bracket(F, Y))) == _typed(got)
    return got


@pytest.mark.parametrize("n", range(1, 9))
def test_partner_matches_the_bareiss_solve_on_random_lie(n):
    for seed in range(6):
        f = lie.random_lie(n, seed)
        big_f = poly.subst_linear(f, -X - Y, Y)
        for F in (f, big_f, f.scale(Fraction(3, 7)), big_f.scale(Fraction(-5, 2))):
            _assert_partner_matches_the_solve(F)


def test_partner_matches_the_bareiss_solve_on_special_images(basis_cache):
    images = [derivations.ds_to_krv(e).F for w in range(3, 11) for e in basis_cache(w).basis]
    assert len(images) == 6
    for F in images:
        for G in (F, F.scale(Fraction(2, 9))):
            assert _assert_partner_matches_the_solve(G) is not None


def test_partner_of_degree_one_and_zero():
    # the x-coordinate is free at n = 1 and set to 0
    assert _typed(_assert_partner_matches_the_solve(X)) == _typed(Poly.word("y", Fraction(1)))
    assert _assert_partner_matches_the_solve(Y) == Poly.zero()
    assert _assert_partner_matches_the_solve(Poly.zero()) == Poly.zero()


def test_partner_is_none_without_a_lie_solution(f3, f5):
    F3, F5 = derivations.ds_to_krv(f3).F, derivations.ds_to_krv(f5).F
    cases = [
        # inhomogeneous sums of special elements
        X + F3,
        F3 + F5,
        F3 + X.scale(Fraction(1, 3)),
        # [y, yxy] has no word starting with x, so the back-substituted
        # candidate is the Lie partner of F3, which solves the wrong equation
        F3 + P(("yxy", 1)),
        # [x + y, (x + y)^3] = 0: (x + y)^3 - x^3 solves the equation, not Lie
        (X + Y) * (X + Y) * (X + Y),
    ]
    for F in cases:
        assert derivations.partner_by_elimination(F) is None
        assert oracles.partner_by_solve(F) is None


def test_special_equivalences_run_no_elimination(monkeypatch, f3):
    def refuse(*args):
        raise RuntimeError("elimination called")

    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "row_echelon", refuse)
    for seed in range(4):
        derivations.special_equivalences(lie.random_lie(6, seed))
    rep = derivations.special_equivalences(poly.negate_y(f3))
    assert rep["existence"] and rep["formula"] and rep["agree"]


def test_formula_rejects_a_partner_off_by_a_fraction(monkeypatch, f5):
    f = poly.negate_y(f5)
    off = lie.lyndon_basis(5).expansions[2]
    section_numerators = derivations._section_numerators

    def off_by_a_seventh(h, right):  # s'(F_x) + off/7, as P/D
        num, den = section_numerators(h, right)
        return poly.accumulate({w: 7 * c for w, c in num.items()}, off.terms.items(), den), 7 * den

    monkeypatch.setattr(derivations, "_section_numerators", off_by_a_seventh)
    rep = derivations.special_equivalences(f)
    assert rep["existence"] and not rep["formula"] and not rep["agree"]


def _count_is_lie(monkeypatch) -> list:
    """Record each argument special_equivalences passes to is_lie."""
    calls: list = []
    is_lie = derivations.is_lie

    def counted(f, *args, **kwargs):
        calls.append(f)
        return is_lie(f, *args, **kwargs)

    monkeypatch.setattr(derivations, "is_lie", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_formula_peels_no_partner_that_misses_the_equation(monkeypatch, seed):
    f = lie.random_lie(6, seed)
    expected = oracles.special_equivalences_peel_first(f)
    calls = _count_is_lie(monkeypatch)
    rep = derivations.special_equivalences(f)
    assert not rep["existence"] and not rep["formula"]
    assert calls == [f]  # the input only: G is not peeled
    assert rep == expected


def test_formula_peels_the_partner_that_solves_the_equation(monkeypatch, f5):
    f = poly.negate_y(f5)
    expected = oracles.special_equivalences_peel_first(f)
    calls = _count_is_lie(monkeypatch)
    rep = derivations.special_equivalences(f)
    assert rep["existence"] and rep["formula"]
    big_f = poly.subst_linear(f, -X - Y, Y)
    assert calls == [f, derivations.solve_partner(big_f)]
    assert rep == expected


@pytest.mark.parametrize("n", range(3, 7))
def test_five_conditions_agree_on_random_lie(n):
    for seed in range(25):
        f = lie.random_lie(n, seed)
        rep = derivations.special_equivalences(f)
        assert rep["agree"], (n, seed, rep)
        assert rep == oracles.special_equivalences_peel_first(f), (n, seed)


def test_five_conditions_all_true_on_generators(f3, f5):
    for f in (f3, f5):
        rep = derivations.special_equivalences(poly.negate_y(f))
        assert rep["agree"] and rep["existence"]
        assert rep["partner"] is not None
        expected = oracles.special_equivalences_peel_first(poly.negate_y(f))
        assert rep == expected and _typed(rep["partner"]) == _typed(expected["partner"])


def test_five_conditions_all_false_somewhere():
    # a generic Lie element is not special; all five must say so together
    hits = 0
    for seed in range(20):
        rep = derivations.special_equivalences(lie.random_lie(5, seed))
        if not rep["existence"]:
            hits += 1
            assert not any(
                rep[k] for k in ("formula", "right_anti", "push_inv", "factor_anti")
            )
    assert hits > 0


def test_special_equivalences_rejects_non_lie():
    with pytest.raises(NotLieError):
        derivations.special_equivalences(Poly.word("xxy"))


# -- factor reconstruction ---------------------------------------------------


def test_factor_out_x_and_y():
    h = lie.random_lie(4, 11)
    f = lie.bracket(X, h)
    assert derivations.factor_out_x(f) == h
    g = lie.bracket(Y, h)
    assert derivations.factor_out_y(g) == h


# -- the embedding ---------------------------------------------------------------


def test_embedding_weight3_frozen(f3):
    d = derivations.ds_to_krv(f3)
    assert d.F == P(("xxy", -1), ("xyx", 2), ("yxx", -1))
    assert d.G == P(("xyy", -1), ("yxy", 2), ("yyx", -1))
    assert derivations.trace_constant(d) == Fraction(-1, 3)
    assert derivations.krv_check(d)
    assert derivations.vkv_check(d.F)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_embedding_yields_special_krv_derivations(n, basis_cache):
    for f in basis_cache(n).basis:
        d = derivations.ds_to_krv(f)
        assert d.is_special()
        a = derivations.trace_constant(d)
        assert a is not None
        assert derivations.krv_check(d)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_embedding_roundtrips(n, basis_cache):
    for f in basis_cache(n).basis:
        d = derivations.ds_to_krv(f)
        assert derivations.krv_to_ds(d) == f


def test_embedding_rejects_non_members():
    with pytest.raises(ValueError):
        derivations.ds_to_krv(lie.random_lie(5, 0))


def test_trace_constant_matches_push_constant_relation(f3):
    # frozen: the push-sum constant of F_y - F_x equals n * traceA
    d = derivations.ds_to_krv(f3)
    fx, fy = poly.decompose_right(d.F)
    assert poly.push_constant(fy - fx) == Fraction(-1)
    assert Fraction(-1) == 3 * derivations.trace_constant(d)


def test_pushconst_transport(f3, f5):
    # the push-sum constant of f survives the change of variables
    for f in (f3, f5):
        rep = derivations.pushconst_transport(poly.negate_y(f))
        assert rep["ok"], rep
        assert rep["transported"] == rep["A"]


def test_trace_constant_none_for_non_krv():
    # a special derivation outside the trace-condition locus reports None
    for n in (5, 7):
        sp = oracles.special_subspace(n)
        outside = [
            F for F in sp
            if derivations.trace_constant(derivations.special_derivation(F)) is None
        ]
        if len(sp) > 1:
            assert outside, f"weight {n}: expected a special non-krv direction"


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, {"dim_special": 1, "dim_krv": 1, "dim_vkv": 1, "same_span": True}),
        (4, {"dim_special": 0, "dim_krv": 0, "dim_vkv": 0, "same_span": True}),
        (5, {"dim_special": 3, "dim_krv": 1, "dim_vkv": 1, "same_span": True}),
    ],
)
def test_kv_dimensions_frozen(n, expected):
    rep = derivations.kv_dimensions(n)
    for k, v in expected.items():
        assert rep[k] == v, (n, k, rep[k])


@pytest.mark.parametrize("n", range(3, 9))
def test_kv_dimensions_counts_the_special_subspace(n):
    assert derivations.kv_dimensions(n)["dim_special"] == len(oracles.special_subspace(n))
