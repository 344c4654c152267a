"""Truncated group exponentials: circle product, group-likeness, automorphisms."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dskrv import derivations, dshuffle, groupexp, lie, words
from dskrv.groupexp import TruncSeries
from dskrv.lie import NotLieError
from dskrv.poly import Poly, numerators, truncated_mul

X = Poly.word("x")
Y = Poly.word("y")


def test_trunc_series_basics():
    s = TruncSeries(Poly.one() + Poly.word("xy"), 4)
    assert s.constant_term == 1
    assert s.coeff("xy") == 1
    assert s.coeff("xx") == 0
    with pytest.raises(ValueError):
        s.coeff("xyxyx")  # beyond the truncation order
    assert TruncSeries.one(4).constant_term == 1


def test_trunc_series_arithmetic_truncates():
    a = TruncSeries(Poly.one() + Poly.word("xyx"), 3)
    b = TruncSeries(Poly.one() + Poly.word("y"), 3)
    prod = a * b
    assert prod.trunc == 3
    assert prod.coeff("y") == 1
    # xyx * y has degree 4 and must be cut
    assert words.code_from_str("xyxy") not in prod.poly.terms
    c = a + b - b
    assert c.poly == a.poly


def test_circle_product_requires_lie_left_factor(f3):
    g = Poly.word("xy")
    with pytest.raises(NotLieError):
        groupexp.circle(g, f3)
    # f (x) g = f g + d_f(g) on Lie f
    h = groupexp.circle(f3, g)
    assert h == f3 * g + dshuffle.d_f(f3, g)


def test_exp_rejects_constant_terms():
    with pytest.raises(ValueError):
        groupexp.exp_circle(Poly.one() + Poly.word("xxy"), 6)


def test_exp_of_generator_frozen(f3):
    phi = groupexp.exp_circle(f3, 9)
    assert phi.trunc == 9
    assert phi.constant_term == 1
    # no degree 1 or 2 terms, frozen term count
    assert all(words.degree(w) not in (1, 2) for w in phi.poly.terms if w != words.EMPTY)
    assert len(phi.poly.terms) == 429
    assert phi.coeff("xxy") == f3.coeff("xxy")


def test_truncation_consistency(f3):
    # recomputing at a lower order equals truncating the higher one
    phi9 = groupexp.exp_circle(f3, 9)
    phi7 = groupexp.exp_circle(f3, 7)
    cut = Poly({w: c for w, c in phi9.poly.terms.items() if words.degree(w) <= 7})
    assert cut == phi7.poly


def test_log_inverts_exp(f3):
    phi = groupexp.exp_circle(f3, 9)
    back = groupexp.log_circle(phi)
    assert back == f3


def test_log_reports_non_lie_increments():
    phi = TruncSeries(Poly.one() + Poly.word("xy"), 4)
    with pytest.raises(NotLieError):
        groupexp.log_circle(phi)


def test_exp_log_on_inhomogeneous_lie():
    f = lie.random_lie(3, 4) + lie.random_lie(4, 4)
    phi = groupexp.exp_circle(f, 8)
    assert groupexp.log_circle(phi) == f


def test_shuffle_grouplike_frozen_pair_count(f3):
    phi = groupexp.exp_circle(f3, 9)
    rep = groupexp.grouplike_shuffle_check(phi)
    assert rep["verdict"], rep
    assert rep["pairs"] == 3601


def test_exp_of_any_lie_element_is_shuffle_grouplike():
    phi = groupexp.exp_circle(lie.random_lie(5, 7), 8)
    rep = groupexp.grouplike_shuffle_check(phi)
    assert rep["verdict"]
    assert rep["pairs"] == 1553


def test_stuffle_grouplike_frozen(f3):
    phi = groupexp.exp_circle(f3, 9)
    rep = groupexp.grouplike_stuffle_check(phi)
    assert rep["verdict"], rep
    assert rep["pairs"] == 904


def test_stuffle_grouplike_discriminates():
    # shuffle group-likeness holds for the exponential of any Lie
    # element; the stuffle side is what detects membership
    phi = groupexp.exp_circle(lie.random_lie(5, 7), 8)
    rep = groupexp.grouplike_stuffle_check(phi)
    assert not rep["verdict"]
    assert rep["witness"] == ("y", "xxxy")


def test_star_series_correction_term(f3):
    phi = groupexp.exp_circle(f3, 9)
    star = groupexp.star_series(phi)
    assert star.constant_term == 1
    # the pure-y coefficient at degree 3 carries the 1/3 correction
    assert star.coeff("yyy") == phi.coeff("yyy") + Fraction(1, 3) * phi.coeff("xxy")


def test_exp_derivation_automorphism(f3):
    d = derivations.ds_to_krv(f3)
    rep = groupexp.automorphism_check(d, trunc=8)
    assert rep["special"]
    assert rep["fixes_x_plus_y"]
    assert rep["bracket_sample"]
    assert rep["trunc"] == 8


@pytest.mark.parametrize("c", [1, Fraction(2, 7)])
def test_automorphism_check_reports_a_non_special_derivation(f3, c):
    # x -> 0, y -> [y, c f3] is not special: A(x) + A(y) moves off x + y,
    # while A still respects the bracket of x and y
    d = derivations.TangentialDerivation(f3.scale(c), Poly.zero())
    assert groupexp.automorphism_check(d, trunc=8) == {
        "special": False,
        "fixes_x_plus_y": False,
        "bracket_sample": True,
        "trunc": 8,
    }


def test_exp_derivation_fixed_point_is_exact(f3):
    d = derivations.ds_to_krv(f3)
    img = groupexp.exp_derivation(d, X + Y, 10).poly
    assert img == X + Y


def test_group_injection_check(f3):
    rep = groupexp.group_certificate(f3, groupexp.exp_circle(f3, 7))
    assert rep["verdict"], rep
    assert rep["shuffle_grouplike"] and rep["stuffle_grouplike"]
    assert rep["log_roundtrip"]
    assert rep["automorphism"]["fixes_x_plus_y"]


def test_group_certificate_rejects_the_series_of_another_element(f3):
    # 2 f3 is in ds too, so its series is group-like; only the logarithm
    # tells it from the exponential of f3
    rep = groupexp.group_certificate(f3, groupexp.exp_circle(f3.scale(2), 7))
    assert rep["shuffle_grouplike"]["verdict"] and rep["stuffle_grouplike"]["verdict"]
    assert rep["log_roundtrip"] is False
    assert rep["verdict"] is False


def test_group_injection_check_rejects_non_members():
    f = lie.random_lie(4, 2)
    phi = groupexp.exp_circle(f, 6)
    with pytest.raises(ValueError):
        groupexp.group_certificate(f, phi)


def test_group_certificate_tests_ds_membership_once(f3, monkeypatch):
    # ds_to_krv(ft, check=True) is the certificate's one membership test;
    # is_ds is rebound in every dskrv module that imports it by name
    phi = groupexp.exp_circle(f3, 9)
    calls = []
    is_ds = dshuffle.is_ds

    def counted(*args, **kwargs):
        calls.append(args)
        return is_ds(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dskrv") and getattr(module, "is_ds", None) is is_ds:
            monkeypatch.setattr(module, "is_ds", counted)
    assert groupexp.group_certificate(f3, phi)["verdict"]
    assert len(calls) == 1


def test_exponentials_share_the_power_bound(f3, monkeypatch):
    # exp_circle(f3, 12) takes the powers of degree 3, 6, 9 and 12; exp(D) of
    # x takes those of degree 4, 7 and 10, and never builds the zero power
    # of degree 13
    d = derivations.ds_to_krv(f3)
    counts = {"circle": 0, "apply": 0}
    circle, apply = groupexp.circle, derivations.TangentialDerivation.apply

    def counted_circle(*args):
        counts["circle"] += 1
        return circle(*args)

    def counted_apply(self, *args):
        counts["apply"] += 1
        return apply(self, *args)

    monkeypatch.setattr(groupexp, "circle", counted_circle)
    monkeypatch.setattr(derivations.TangentialDerivation, "apply", counted_apply)
    groupexp.exp_circle(f3, 12)
    groupexp.exp_derivation(d, X, 12)
    assert counts == {"circle": 4, "apply": 3}


def test_series_json(f3):
    phi = groupexp.exp_circle(f3, 6)
    obj = phi.to_json()
    assert obj["trunc"] == 6
    assert obj["series"]["terms"]


# -- the (numerators, denominator) form of TruncSeries -----------------------------


def _assert_canonical(s: TruncSeries) -> None:
    assert s.den > 0 and math.gcd(s.den, *s.num.values()) == 1
    assert all(c and words.degree(w) <= s.trunc for w, c in s.num.items())


def test_trunc_series_form_is_canonical(f3, f5):
    half = TruncSeries(Poly.word("x", Fraction(1, 2)) + Poly.word("xy", Fraction(1, 6)), 3)
    phi = groupexp.exp_circle(f3, 9)
    series = [
        phi,
        groupexp.exp_circle(f5.scale(Fraction(2, 7)), 9),
        groupexp.star_series(phi),
        phi * phi,
        phi - phi,
        half,
        half + half,
    ]
    for s in series:
        _assert_canonical(s)
    assert (half.num, half.den) == ({words.code_from_str("x"): 3, words.code_from_str("xy"): 1}, 6)
    assert ((half + half).num, (half + half).den) == (
        {words.code_from_str("x"): 3, words.code_from_str("xy"): 1},
        3,
    )
    assert ((phi - phi).num, (phi - phi).den) == ({}, 1)


def test_trunc_series_arithmetic_matches_fraction_polys(f3, f5):
    # operands over different denominators and of different orders
    a = groupexp.exp_circle(f3.scale(Fraction(3, 4)), 9)
    b = groupexp.exp_circle(f5.scale(Fraction(-2, 7)), 8)
    assert a.den != b.den
    assert (a + b).poly == oracles.cut(a.poly + b.poly, 8)
    assert (a - b).poly == oracles.cut(a.poly - b.poly, 8)
    assert (b - a).poly == oracles.cut(b.poly - a.poly, 8)
    assert (a * b).poly == oracles.cut(a.poly * b.poly, 8)
    assert (a + b).trunc == (a * b).trunc == 8


@pytest.mark.parametrize("trunc", [5, 9])
def test_series_built_from_fraction_poly_equals_exp_circle(element, trunc):
    phi = groupexp.exp_circle(element, trunc)
    values = {w: Fraction(c, phi.den) for w, c in phi.num.items()}
    assert TruncSeries(Poly(values), trunc) == phi
    mixed = {w: int(v) if v.denominator == 1 else v for w, v in values.items()}
    assert TruncSeries(Poly(mixed), trunc) == phi
    assert TruncSeries(phi.poly, trunc) == phi
    # terms beyond the order are dropped, not kept
    longer = groupexp.exp_circle(element, trunc + 2).poly
    assert TruncSeries(longer, trunc) == phi


def test_trunc_series_pickles_and_stays_immutable(f3):
    phi = groupexp.exp_circle(f3, 9)
    twin = pickle.loads(pickle.dumps(phi))
    assert twin == phi and (twin.num, twin.den, twin.trunc) == (phi.num, phi.den, phi.trunc)
    for name, value in (("num", {}), ("den", 1), ("trunc", 3), ("poly", Poly.zero()), ("spare", 0)):
        with pytest.raises(AttributeError):
            setattr(phi, name, value)


def test_exp_circle_json_is_unchanged(f3):
    obj = groupexp.exp_circle(f3, 9).to_json()
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == "85e82bf469ea95122c30b552ff45289a2258a31d0ba5e9e56dc618a048397422"


def test_group_layer_builds_no_fractions(f3, monkeypatch):
    # exp_circle, star_series and both sweeps run on integer numerators
    # over one denominator, also when f has Fraction coefficients
    elements = [f3, f3.scale(Fraction(2, 7))]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    if hasattr(Fraction, "_from_coprime_ints"):
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(refuse))
    for f in elements:
        phi = groupexp.exp_circle(f, 9)
        star = groupexp.star_series(phi)
        assert star.den > 0 and star.num
        assert groupexp.grouplike_shuffle_check(phi)["verdict"]
        assert groupexp.grouplike_stuffle_check(phi)["verdict"]


def test_exp_derivation_result_types(f3):
    # exp(D) f reads ints throughout when its common denominator is 1 and
    # Fractions throughout otherwise, the degree-one term included
    special = derivations.ds_to_krv(f3)
    fixed = groupexp.exp_derivation(special, X + Y, 8).poly
    assert fixed == X + Y and all(type(c) is int for c in fixed.terms.values())
    ax = groupexp.exp_derivation(special, X, 8).poly
    assert ax.coeff("x") == 1 and type(ax.coeff("x")) is Fraction
    assert all(type(c) is Fraction for c in ax.terms.values())
    for c in (1, Fraction(2, 7)):
        d = derivations.TangentialDerivation(f3.scale(c), Poly.zero())
        assert groupexp.exp_derivation(d, X, 8).poly.terms == {words.as_code("x"): 1}
        ay = groupexp.exp_derivation(d, Y, 8).poly
        assert ay == oracles.exp_derivation(d.F, d.G, Y, 8)
        assert all(type(c) is Fraction for c in ay.terms.values())


# -- agreement with the definitions in tests/oracles.py ---------------------------


def _inhomogeneous():
    """A Lie element of degrees 3 and 4 with non-integer coefficients."""
    return lie.random_lie(3, 5).scale(Fraction(2, 3)) + lie.random_lie(4, 6).scale(
        Fraction(-1, 5)
    )


@pytest.fixture(params=["f3", "f5", "inhomogeneous"])
def element(request):
    if request.param == "inhomogeneous":
        return _inhomogeneous()
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("trunc", [4, 7, 9])
def test_exp_circle_matches_oracle(element, trunc):
    assert groupexp.exp_circle(element, trunc).poly == oracles.exp_circle(element, trunc)


@pytest.mark.parametrize("trunc", [5, 7])
def test_log_circle_matches_oracle(element, trunc):
    phi = oracles.exp_circle(element, trunc)
    expected = oracles.log_circle(phi, trunc)
    assert groupexp.log_circle(TruncSeries(phi, trunc)) == expected
    assert expected == oracles.cut(element, trunc)


@pytest.mark.parametrize("trunc", [6, 9])
@pytest.mark.parametrize("name", ["f3", "f5"])
def test_exp_derivation_matches_oracle(request, name, trunc):
    d = derivations.ds_to_krv(request.getfixturevalue(name))
    for h in (X, Y, lie.bracket(X, Y), X * Y * Y):
        expected = oracles.exp_derivation(d.F, d.G, h, trunc)
        assert groupexp.exp_derivation(d, h, trunc).poly == expected


@pytest.mark.parametrize("trunc", [6, 9, 12])
@pytest.mark.parametrize("name", ["f3", "f5", "sum", "random", "scaled"])
def test_star_series_matches_oracle(f3, f5, name, trunc):
    element = {
        "f3": f3,
        "f5": f5,
        "sum": f3 + f5,
        "random": lie.random_lie(4, 3),
        "scaled": f3.scale(Fraction(2, 7)),
    }[name]
    phi = groupexp.exp_circle(element, trunc)
    assert groupexp.star_series(phi).poly == oracles.star_series(phi.poly, trunc)


def test_bounded_products_equal_truncated_full_ones(element, f3):
    d = derivations.ds_to_krv(f3)
    g = groupexp.exp_circle(element, 7).poly
    assert dshuffle.d_f(element, g) == oracles.d_f(element, g)
    assert d.apply(g) == oracles.tangential_apply(d.F, d.G, g)
    for trunc in (0, 3, 6, 9):
        assert dshuffle.d_f(element, g, trunc) == oracles.cut(dshuffle.d_f(element, g), trunc)
        assert d.apply(g, trunc) == oracles.cut(d.apply(g), trunc)
        assert truncated_mul(element, g, trunc) == oracles.cut(element * g, trunc)
        assert groupexp.circle(element, g, trunc) == oracles.cut(
            groupexp.circle(element, g), trunc
        )


# -- the dual coproducts against the oracle products ------------------------------


@functools.cache
def _oracle_pairing_table(kind: str, trunc: int) -> dict[tuple[int, int], dict[int, int]]:
    """{(u, v): product} for every pair with deg u <= deg v and
    deg u + deg v <= trunc, empty words included (y-ending words for the
    stuffle), from the independent products of tests/oracles.py."""

    def comp(u: str) -> tuple[int, ...]:
        return oracles.composition_of_word(u) if u else ()

    table = {}
    for a in range(trunc // 2 + 1):
        for b in range(a, trunc - a + 1):
            for u in oracles.all_degree_words(a):
                for v in oracles.all_degree_words(b):
                    if kind == "shuffle":
                        product = oracles.interleave_shuffle(u, v)
                    elif all(w[-1:] in ("", "y") for w in (u, v)):
                        product = {
                            oracles.word_of_composition(c): m
                            for c, m in oracles.surjection_stuffle(comp(u), comp(v)).items()
                        }
                    else:
                        continue
                    key = (words.code_from_str(u), words.code_from_str(v))
                    table[key] = {words.code_from_str(w): m for w, m in product.items()}
    return table


def _entries(buckets) -> dict[tuple[int, int], object]:
    """The nonzero entries of dense coproduct buckets as {(u, v): value}:
    bucket (a, b) is indexed by the a bits of u above the b bits of v."""
    out = {}
    for (a, b), values in buckets.items():
        for i, c in enumerate(values):
            if c:
                out[(1 << a) | (i >> b), (1 << b) | (i & ((1 << b) - 1))] = c
    return out


def shuffle_coproduct(series: dict[int, object]) -> dict[tuple[int, int], object]:
    return _entries(dshuffle.shuffle_buckets(series))


def stuffle_coproduct(series: dict[int, object]) -> dict[tuple[int, int], object]:
    return _entries(dshuffle.stuffle_buckets(series))


def _coproduct_series(name: str, trunc: int, f3, f5=None) -> Poly:
    if name == "f3":
        return groupexp.exp_circle(f3, trunc).poly
    if name == "f5":
        return groupexp.exp_circle(f5, trunc).poly
    if name == "random":
        return groupexp.exp_circle(lie.random_lie(4, 3), trunc).poly
    # a series that is not group-like, with Fraction coefficients off
    off = Poly.word("y", Fraction(-2, 7)) + Poly.word("xyxy", Fraction(3, 5))
    return groupexp.exp_circle(f3, trunc).poly + oracles.cut(off, trunc)


@pytest.mark.parametrize("kind", ["shuffle", "stuffle"])
@pytest.mark.parametrize("name", ["f3", "random", "perturbed"])
@pytest.mark.parametrize("trunc", range(1, 9))
def test_coproduct_entries_are_the_oracle_pairings(f3, name, trunc, kind):
    series = _coproduct_series(name, trunc, f3)
    if kind == "shuffle":
        coproduct = shuffle_coproduct(series.terms)
    else:
        series = groupexp.star_series(TruncSeries(series, trunc)).poly
        coproduct = stuffle_coproduct(series.terms)
    expected = {
        pair: sum(series.terms.get(w, 0) * m for w, m in product.items())
        for pair, product in _oracle_pairing_table(kind, trunc).items()
    }
    assert set(coproduct) <= set(expected)
    assert {pair: coproduct.get(pair, 0) for pair in expected} == expected


@pytest.mark.parametrize("kind", ["shuffle", "stuffle"])
@pytest.mark.parametrize("name", ["f3", "f5", "random", "perturbed"])
@pytest.mark.parametrize("trunc", range(9, 14))
def test_dense_coproducts_match_the_sparse_recursion(f3, f5, name, trunc, kind):
    # on the integer numerators, as the sweeps use them; the Fraction
    # coefficients themselves are covered up to order 8 above
    series = _coproduct_series(name, trunc, f3, f5)
    if kind == "shuffle":
        dense, sparse = shuffle_coproduct, oracles.shuffle_coproduct
    else:
        series = groupexp.star_series(TruncSeries(series, trunc)).poly
        dense, sparse = stuffle_coproduct, oracles.stuffle_coproduct
    num, _ = numerators(series)
    coproduct = dense(num)
    assert coproduct == sparse(num)
    assert all(coproduct.values())
    # Delta(f) = 1 (x) f + ..., so the empty-u entries are the series itself
    assert {v: c for (u, v), c in coproduct.items() if u == words.EMPTY} == num


def test_single_word_coproducts_match_their_definitions():
    for n in range(8):
        for w in oracles.all_degree_words(n):
            expected: dict[tuple[int, int], int] = {}
            for k in range(n // 2 + 1):
                for left in itertools.combinations(range(n), k):
                    u = "".join(w[i] for i in left)
                    v = "".join(w[i] for i in range(n) if i not in left)
                    key = (words.code_from_str(u), words.code_from_str(v))
                    expected[key] = expected.get(key, 0) + 1
            assert shuffle_coproduct({words.code_from_str(w): 1}) == expected
            if w.endswith("y"):
                blocks = oracles.block_coproduct_of_word(w)
                assert stuffle_coproduct({words.code_from_str(w): 1}) == {
                    (words.code_from_str(u), words.code_from_str(v)): c
                    for (u, v), c in blocks.items()
                    if len(u) <= len(v)
                }


def test_stuffle_coproduct_rejects_words_ending_in_x():
    with pytest.raises(ValueError):
        dshuffle.stuffle_buckets({words.code_from_str("yx"): 1})


def test_grouplike_checks_build_no_products(f3):
    phi = groupexp.exp_circle(f3, 10)
    dshuffle._sh_cache.clear()
    dshuffle._st_cache.clear()
    assert groupexp.grouplike_shuffle_check(phi)["verdict"]
    assert groupexp.grouplike_stuffle_check(phi)["verdict"]
    assert not dshuffle._sh_cache
    assert not dshuffle._st_cache


# -- the failure path of the pairing sweeps, frozen ------------------------------

# (word whose coefficient in exp_circle(f3, 9) is raised by 1/7, shuffle
# witness, shuffle pairs, stuffle witness, stuffle pairs)
PERTURBED = [
    ("yxy", ("x", "yy"), 6, ("y", "xy"), 1),
    ("xxyxxy", ("x", "xxyxy"), 64, ("y", "xxyxy"), 17),
    ("xyxyyxy", ("x", "xyxyyy"), 146, ("y", "xyxyxy"), 41),
    ("xxxxxxxxy", ("x", "xxxxxxxy"), 508, ("y", "xxxxxxxy"), 127),
    ("yyxxyxyxy", ("x", "yyxxyxyy"), 710, ("y", "yxxyxyxy"), 201),
]


def _assert_first_failures(f3, trunc, word, sh_witness, sh_pairs, st_witness, st_pairs):
    """Raise the coefficient of word in exp_circle(f3, trunc) by 1/7 and
    compare both sweep reports with the recorded ones."""
    phi = groupexp.exp_circle(f3, trunc)
    bad = TruncSeries(phi.poly + Poly.word(word, Fraction(1, 7)), trunc)
    assert groupexp.grouplike_shuffle_check(bad) == {
        "verdict": False,
        "witness": sh_witness,
        "pairs": sh_pairs,
    }
    assert groupexp.grouplike_stuffle_check(bad) == {
        "verdict": False,
        "witness": st_witness,
        "pairs": st_pairs,
    }


@pytest.mark.parametrize("word,sh_witness,sh_pairs,st_witness,st_pairs", PERTURBED)
def test_sweeps_report_first_failing_pair(f3, word, sh_witness, sh_pairs, st_witness, st_pairs):
    _assert_first_failures(f3, 9, word, sh_witness, sh_pairs, st_witness, st_pairs)


# The same at truncation order 12, recorded with the sparse coproduct
# recursion: "y" fails in a bucket whose part of degree deg u + deg v is 0,
# "yy" and "xy" in the deg u = deg v bucket of a nonzero part, and the
# degree-12 word in the last bucket of the deg u = 1 row.
PERTURBED_12 = [
    ("y", ("y", "y"), 2, ("y", "y"), 0),
    ("xy", ("x", "y"), 1, ("y", "yxy"), 5),
    ("yy", ("y", "y"), 2, ("y", "y"), 0),
    ("yxxyxyxxyxyy", ("x", "yxxyxyxxyyy"), 5282, ("y", "xxyxyxxyxyy"), 1188),
]


@pytest.mark.parametrize("word,sh_witness,sh_pairs,st_witness,st_pairs", PERTURBED_12)
def test_sweeps_report_first_failing_pair_at_order_12(
    f3, word, sh_witness, sh_pairs, st_witness, st_pairs
):
    _assert_first_failures(f3, 12, word, sh_witness, sh_pairs, st_witness, st_pairs)


@pytest.mark.parametrize(
    "kind,perturbed,pairs",
    [
        ("shuffle", False, 3601),
        ("stuffle", False, 904),
        ("shuffle", True, 64),
        ("stuffle", True, 17),
    ],
)
def test_sweeps_do_not_depend_on_the_reduction(f3, kind, perturbed, pairs):
    # the same report for num/den and for 6 num / 6 den: a pass and the
    # first failing pair of PERTURBED at order 9
    phi = groupexp.exp_circle(f3, 9)
    if perturbed:
        phi = TruncSeries(phi.poly + Poly.word("xxyxxy", Fraction(1, 7)), 9)
    buckets, y_ending = dshuffle.shuffle_buckets, False
    if kind == "stuffle":
        phi = groupexp.star_series(phi)
        buckets, y_ending = dshuffle.stuffle_buckets, True
    reports = [
        dshuffle.coproduct_sweep(buckets(num), num, den, 9, y_ending=y_ending)
        for num, den in (
            (phi.num, phi.den),
            ({w: 6 * c for w, c in phi.num.items()}, 6 * phi.den),
        )
    ]
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] is not perturbed
    assert reports[0]["pairs"] == pairs


def _perturbations(trunc: int):
    """One coefficient of a series of order trunc raised by a nonzero Fraction."""
    word = st.integers(1, trunc).flatmap(lambda d: st.sampled_from(oracles.all_degree_words(d)))
    return st.tuples(word, st.fractions(-3, 3, max_denominator=5).filter(bool))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweeps_match_the_fraction_oracle(f3, data):
    trunc = data.draw(st.integers(1, 7), label="trunc")
    word, delta = data.draw(_perturbations(trunc), label="perturbation")
    phi = groupexp.exp_circle(f3, trunc)
    bad = TruncSeries(phi.poly + Poly.word(word, delta), trunc)
    star = groupexp.star_series(bad).poly
    assert groupexp.grouplike_shuffle_check(bad) == oracles.grouplike_sweep(
        bad.poly, trunc, dshuffle.shuffle
    )
    assert groupexp.grouplike_stuffle_check(bad) == oracles.grouplike_sweep(
        star, trunc, dshuffle.stuffle, y_ending=True
    )
