"""The per-element certificates run on integer numerators.

Each certificate is linear in its input f = P/D, so the library runs it
on the integer numerators P and divides what it reports by D once.  Here
every such function is compared with its Fraction body in oracles.py:
values, int/Fraction types and dict order, on every basis element of
weights 3..10 and on random elements scaled by random rationals.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dskrv import cli, derivations, dshuffle, lie, moulds, poly
from dskrv.derivations import TangentialDerivation
from dskrv.moulds import CPoly, Mould
from dskrv.poly import Poly, Terms


def assert_same(got, want, where="value"):
    """got equals want with the same types throughout and the same dict order."""
    assert type(got) is type(want), (where, type(got), type(want))
    if isinstance(want, Terms):
        if isinstance(want, CPoly):
            assert got.arity == want.arity, where
        assert_same(got.terms, want.terms, f"{where}.terms")
    elif isinstance(want, Mould):
        assert (got.kind, got.degree) == (want.kind, want.degree), where
        assert_same(got.components, want.components, f"{where}.components")
    elif isinstance(want, TangentialDerivation):
        for name in ("F", "G", "images", "_trace"):
            assert_same(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), (where, list(got), list(want))
        for k in want:
            assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return "raised", type(exc), str(exc)


def assert_same_outcome(fn, reference, *args, where=""):
    got, want = outcome(fn, *args), outcome(reference, *args)
    assert_same(got, want, where or fn.__name__)


# every scale-invariant check of moulds, beside its Fraction body
MOULD_CHECKS = [
    (moulds.mantar_fixed_check, oracles.fraction_mantar_fixed_check),
    (moulds.negation_rule_check, oracles.fraction_negation_rule_check),
    (moulds.translation_rule_check, oracles.fraction_translation_rule_check),
    (moulds.ecalle_identity_check, oracles.fraction_ecalle_identity_check),
    (moulds.ecalle_bridge_check, oracles.fraction_ecalle_bridge_check),
    (moulds.antipal_bridge_check, oracles.fraction_antipal_bridge_check),
    (moulds.antipal_sum_check, oracles.fraction_antipal_sum_check),
]


def assert_element_checks_match(f: Poly) -> None:
    """Every per-element function on f against its Fraction body."""
    for check, reference in MOULD_CHECKS:
        assert_same_outcome(check, reference, f)
    # the mould command's shared family: the report is u_family(f), and the
    # checks given the family of the numerators agree with the Fraction bodies
    p, m, family = moulds._numerator_family(f)
    assert_same(family, moulds.u_family(f), "u_family")
    assert_same(m, moulds.u_family(p), "numerator family")
    for shared, reference in (
        (moulds.mantar_fixed_check, oracles.fraction_mantar_fixed_check),
        (moulds.ecalle_identity_check, oracles.fraction_ecalle_identity_check),
        (moulds.ecalle_bridge_check, oracles.fraction_ecalle_bridge_check),
    ):
        assert_same_outcome(
            lambda g: shared(p, m), reference, f, where=f"{shared.__name__}(p, m)"
        )
    assert_same_outcome(dshuffle.signed_push_sums_check, oracles.fraction_signed_push_sums_check, f)
    for g in (f, poly.negate_y(f)):
        assert_same_outcome(
            derivations.pushconst_transport, oracles.fraction_pushconst_transport, g
        )
    fx, fy = poly.decompose_right(f)
    for g in (fy, fy - fx, poly.subst_linear(f, -oracles.X - oracles.Y, oracles.Y)):
        assert_same_outcome(poly.push_constant, oracles.fraction_push_constant, g)
        assert_same(poly.push_constant(*poly.integral(g)), oracles.fraction_push_constant(g))
    if f.degree() >= 2 and lie.is_lie(f):
        assert_same_outcome(derivations.vkv_check, oracles.fraction_vkv_check, f)
    n = f.degree()
    assert_same_outcome(
        lambda g: cli._injection(g, n, image=True), lambda g: oracles.fraction_injection(g, n), f
    )


_NONEMPTY = [n for n in range(3, 11) if dshuffle.ds_basis(n).dimension]


@pytest.mark.parametrize("n", _NONEMPTY)
def test_certificates_match_the_fraction_bodies_on_the_basis(n, basis_cache):
    for f in basis_cache(n).basis:
        assert_element_checks_match(f)


def test_basis_elements_are_all_fraction(basis_cache):
    # the conversions give the Fraction computation's types for inputs whose
    # coefficients are all ints or all Fractions, as every basis element's are
    for n in _NONEMPTY:
        for f in basis_cache(n).basis:
            assert {type(c) for c in f.terms.values()} == {Fraction}


def test_injection_builds_the_image_only_on_request(basis_cache):
    f = basis_cache(7).basis[0]
    d, rep = cli._injection(f, 7, image=True)
    assert cli._injection(f, 7) == (None, rep)
    assert derivations.trace_constant(d) == rep["trace_constant"]


_scales = st.one_of(
    st.integers(-30, 30).filter(bool),
    st.fractions(-30, 30, max_denominator=60).filter(bool),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 10**6), scale=_scales)
def test_certificates_match_on_scaled_random_lie_elements(n, seed, scale):
    assert_element_checks_match(lie.random_lie(n, seed).scale(scale))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 5, 7, 8]), scale=_scales)
def test_certificates_match_on_scaled_basis_elements(n, scale):
    assert_element_checks_match(dshuffle.ds_basis(n).basis[0].scale(scale))


@settings(max_examples=40, deadline=None)
@given(
    ns=st.sampled_from([(3, 3), (3, 4), (4, 5), (3, 5)]),
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    scales=st.tuples(_scales, _scales),
)
def test_poisson_matches_the_fraction_body(ns, seeds, scales):
    f, g = (lie.random_lie(n, s).scale(c) for n, s, c in zip(ns, seeds, scales))
    assert_same(dshuffle.poisson(f, g), oracles.fraction_poisson(f, g), "poisson")


@pytest.mark.parametrize("w1, w2", [(3, 5), (3, 7), (5, 5), (5, 8)])
def test_bracket_command_matches_the_fraction_computation(w1, w2):
    args = argparse.Namespace(
        w1=w1, w2=w2, index1=0, index2=0, weight=None, weights=None, strict=False
    )
    _, payload, ok, _ = cli.cmd_bracket(args)
    fa, fb = dshuffle.ds_basis(w1).basis[0], dshuffle.ds_basis(w2).basis[0]
    br = oracles.fraction_poisson(fa, fb)
    member = bool(br) and dshuffle.is_ds(br)
    compatible = None
    if member:
        da, db = derivations.ds_to_krv(fa), derivations.ds_to_krv(fb)
        compatible = da.commutator(db) == derivations.ds_to_krv(br, check=False)
    assert_same(payload["bracket"], br, "bracket")
    assert payload["is_member"] is member
    assert payload["commutator_compatible"] is compatible
    assert ok


@pytest.mark.parametrize("n", range(3, 9))
def test_kv_dimensions_matches_the_fraction_rows(n):
    assert_same(derivations.kv_dimensions(n), oracles.fraction_kv_dimensions(n), "kv_dimensions")


def test_mould_builds_each_u_family_once(monkeypatch, capsys):
    calls = []
    u_family = moulds.u_family
    monkeypatch.setattr(moulds, "u_family", lambda f: calls.append(f) or u_family(f))
    for strict in ([], ["--strict"]):
        calls.clear()
        assert cli.main(["mould", "--weights", "3..8", "--check", "all", *strict]) == 0
        elements = sum(dshuffle.ds_basis(n).dimension for n in range(3, 9))
        assert len(calls) == elements
        assert all(type(c) is int for f in calls for c in f.terms.values())
    capsys.readouterr()


def test_special_equivalences_builds_the_y_bracket_once(monkeypatch):
    calls = []
    bracket = derivations.bracket

    def counted(f, g):
        if g is derivations.Y:
            calls.append(f)
        return bracket(f, g)

    monkeypatch.setattr(derivations, "bracket", counted)
    for seed in range(5):
        calls.clear()
        rep = derivations.special_equivalences(lie.random_lie(5, seed))
        assert len(calls) == 1
        assert rep == oracles.special_equivalences_peel_first(lie.random_lie(5, seed))
    calls.clear()
    derivations.partner_by_elimination(lie.random_lie(5, 0))  # called alone, it builds its own
    assert len(calls) == 1


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), 5])
def test_sums_over_orbits_that_miss_f_keep_the_int_zero(c):
    # x^2 y alone: the orbit of xy, yx misses f_y = c x^2, so the failing
    # signed push sum is the int 0, and the push constant of f_y - f_x
    # sums its first orbit over words that f does not have
    f = Poly({poly.words.code_from_str("xxy"): c})
    assert_same_outcome(dshuffle.signed_push_sums_check, oracles.fraction_signed_push_sums_check, f)
    assert dshuffle.signed_push_sums_check(f)["sum"] == 0
    for g in (f, Poly({poly.words.code_from_str("yxx"): c, poly.words.code_from_str("xyx"): c})):
        assert_same_outcome(poly.push_constant, oracles.fraction_push_constant, g)
        assert_same(poly.push_constant(*poly.integral(g)), oracles.fraction_push_constant(g))


@pytest.mark.parametrize("check", [check for check, _ in MOULD_CHECKS])
def test_mould_checks_run_on_integer_numerators(monkeypatch, basis_cache, check):
    seen = []
    z_family = moulds.z_family
    monkeypatch.setattr(moulds, "z_family", lambda f: seen.append(f) or z_family(f))
    check(basis_cache(7).basis[0])
    assert seen
    assert all(type(c) is int for f in seen for c in f.terms.values())
