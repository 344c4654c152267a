"""Shuffle/stuffle products, membership predicates, bases, Poisson bracket.

Product implementations are compared exhaustively at low degree against
the independent reference implementations in oracles.py (explicit
interleavings and surjection pairs), which share no code with the
package.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
from dskrv import cli, dshuffle, lie, linalg, moulds, poly, words
from dskrv.poly import Poly, numerators


def poly_as_strdict(f: Poly) -> dict[str, object]:
    return {words.str_from_code(w): c for w, c in f.terms.items()}


# -- products against the independent oracle --------------------------------------


def test_shuffle_hand_values():
    assert dshuffle.shuffle("xy", "y") == Poly.word("xyy", 2) + Poly.word("yxy")
    assert dshuffle.shuffle("x", "y") == Poly.word("xy") + Poly.word("yx")


@pytest.mark.parametrize("total", range(2, 7))
def test_shuffle_matches_interleaving_oracle(total):
    for da in range(1, total):
        for u in oracles.all_degree_words(da):
            for v in oracles.all_degree_words(total - da):
                got = poly_as_strdict(dshuffle.shuffle(u, v))
                assert got == oracles.interleave_shuffle(u, v), (u, v)


def test_shuffle_is_commutative_and_associative():
    u, v, w = "xy", "yx", "y"
    assert dshuffle.shuffle(u, v) == dshuffle.shuffle(v, u)
    lhs = sum(
        (dshuffle.shuffle(words.str_from_code(t), w).scale(c)
         for t, c in dshuffle.shuffle(u, v).terms.items()),
        Poly.zero(),
    )
    rhs = sum(
        (dshuffle.shuffle(u, words.str_from_code(t)).scale(c)
         for t, c in dshuffle.shuffle(v, w).terms.items()),
        Poly.zero(),
    )
    assert lhs == rhs


def test_stuffle_hand_values():
    assert dshuffle.stuffle("y", "y") == Poly.word("xy") + Poly.word("yy", 2)
    assert dshuffle.stuffle("y", "xy") == Poly.word("xxy") + Poly.word("xyy") + Poly.word("yxy")


@pytest.mark.parametrize("total", range(2, 7))
def test_stuffle_matches_surjection_oracle(total):
    for da in range(1, total):
        for u in oracles.all_degree_words(da):
            if not u.endswith("y"):
                continue
            for v in oracles.all_degree_words(total - da):
                if not v.endswith("y"):
                    continue
                expected = {
                    oracles.word_of_composition(c): m
                    for c, m in oracles.surjection_stuffle(
                        oracles.composition_of_word(u), oracles.composition_of_word(v)
                    ).items()
                }
                assert poly_as_strdict(dshuffle.stuffle(u, v)) == expected, (u, v)


def test_composition_encoding_roundtrip():
    assert dshuffle.composition_of(words.code_from_str("xxyxy")) == (3, 2)
    assert dshuffle.word_of_composition((3, 2)) == words.code_from_str("xxyxy")
    for n in range(1, 8):
        for comp in dshuffle.compositions(n):
            assert sum(comp) == n
            assert dshuffle.composition_of(dshuffle.word_of_composition(comp)) == comp


# -- membership ------------------------------------------------------------------


def test_generator_membership(f3):
    assert dshuffle.is_ds(f3)
    assert dshuffle.is_ds(f3, strict=True)


def test_random_lie_elements_are_rejected():
    for seed in range(5):
        f = lie.random_lie(5, seed)
        assert not dshuffle.is_ds(f)
    g = lie.random_lie(10, 0)
    assert dshuffle.is_ds(g) is False
    assert dshuffle.is_ds(g, strict=True) is False


def test_low_degree_raises_and_non_lie_is_rejected():
    with pytest.raises(ValueError):
        dshuffle.is_ds(lie.bracket(Poly.word("x"), Poly.word("y")))
    with pytest.raises(ValueError):
        dshuffle.is_ds(Poly.word("xy") + Poly.word("xxy"))
    assert not dshuffle.is_ds(Poly.word("xxy"))


def test_starred_form_satisfies_all_stuffles(f3):
    # the starred form adds the pure-y correction; with it, stuffle
    # orthogonality extends to pairs of pure y-powers
    star = dshuffle.starred_part(f3)
    n = 3
    sign = 1 if n % 2 else -1  # (-1)^(n-1)
    assert star.coeff("yyy") == Fraction(sign, n) * f3.coeff("xxy")
    for a, b in [((1,), (1, 1)), ((1,), (1,)), ((2,), (1,))]:
        u = dshuffle.word_of_composition(a)
        v = dshuffle.word_of_composition(b)
        if words.degree(u) + words.degree(v) == n:
            assert star.pairing(dshuffle.stuffle(u, v)) == 0


def test_strict_membership_cross_checks_starred_form(f5):
    assert dshuffle.is_ds(f5, strict=True)


def lie_cases(n: int, basis_cache) -> list[Poly]:
    """Lie elements of degree n: random ones, the ds basis elements, and
    each basis element plus 1/7 of each Lyndon expansion."""
    basis = basis_cache(n).basis
    perturbed = [f + e.scale(Fraction(1, 7)) for f in basis for e in lie.lyndon_basis(n).expansions]
    return [lie.random_lie(n, s) for s in range(3)] + list(basis) + perturbed


@lru_cache(maxsize=None)
def stuffle_table(n: int) -> tuple:
    return tuple(oracles.stuffle_table(n))


@pytest.mark.parametrize("n", range(3, 10))
def test_membership_matches_the_product_sweep(n, basis_cache):
    # the defining relations skip the pairs of two powers of y; the
    # corrected series of a member satisfies every relation, and its dense
    # sweep reports the first failure and pair count of the product sweep
    table = stuffle_table(n)
    defining = [
        e for e in table if not (words.is_power_of_y(e[0]) and words.is_power_of_y(e[1]))
    ]
    verdicts = []
    for f in lie_cases(n, basis_cache):
        verdict = not any(oracles.pairing_failures(defining, *numerators(f)))
        assert dshuffle.is_ds(f) is dshuffle.is_ds(f, strict=True) is verdict
        num, den = numerators(dshuffle.starred_part(f))
        sweep = dshuffle.coproduct_sweep(dshuffle.stuffle_buckets(num), num, den, n, y_ending=True)
        assert sweep == oracles.first_pairing_failure(table, num, den)
        assert sweep["verdict"] is verdict
        verdicts.append(verdict)
    assert verdicts.count(True) == basis_cache(n).dimension


def test_membership_builds_no_products(f5):
    dshuffle._st_cache.clear()
    assert dshuffle.is_ds(f5, strict=True)
    assert not dshuffle.is_ds(f5 + lie.random_lie(5, 0), strict=True)
    assert not dshuffle._st_cache


# -- bases -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,dim",
    [(3, 1), (4, 0), (5, 1), (6, 0), (7, 1), (8, 1)],
)
def test_basis_dimensions_frozen(n, dim, basis_cache):
    # frozen from the independent monomial-level oracle (see
    # test_acceptance.py for the certified recomputation at 3..9)
    res = basis_cache(n)
    assert res.dimension == dim
    assert len(res.basis) == dim


def test_basis_element_weight3_frozen(f3):
    assert poly_as_strdict(f3) == {
        "xxy": 1, "xyx": -2, "yxx": 1, "xyy": 1, "yxy": -2, "yyx": 1,
    }


def test_basis_elements_are_lie_and_normalized(basis_cache):
    for n in (3, 5, 7, 8):
        for f in basis_cache(n).basis:
            assert lie.is_lie(f)
            assert dshuffle.is_ds(f)
            lead = f.coeff("x" * (n - 1) + "y")
            # odd weight: normalized to 1; even weight: forced to vanish
            assert lead == (1 if n % 2 else 0)


def test_basis_certificates(basis_cache):
    res = basis_cache(5)
    stats = res.constraint_stats
    assert stats["rows"] > 0 and stats["cols"] == 6  # Lie dimension at weight 5
    assert stats["rank"] == stats["cols"] - res.dimension
    certs = res.certificates
    assert certs["elements_pass_is_ds"] and certs["elements_are_lie"]
    assert certs["lead_coefficient"] == ("1",)
    certs8 = basis_cache(8).certificates
    assert certs8["even_weight_lead_vanishes"] is True


def test_basis_certificates_peel_each_element_once(monkeypatch):
    peeled = []
    is_lie = dshuffle.is_lie
    monkeypatch.setattr(dshuffle, "is_lie", lambda f: peeled.append(f) or is_lie(f))
    monkeypatch.setattr(dshuffle, "_basis_cache", {})
    res = dshuffle.ds_basis(9)
    assert res.certificates["elements_pass_is_ds"] and res.certificates["elements_are_lie"]
    assert peeled == list(res.basis)  # the peel inside is_ds, and no second one


def test_basis_lie_certificate_peels_when_is_ds_fails(monkeypatch):
    monkeypatch.setattr(dshuffle, "is_ds", lambda f, strict=False: False)
    monkeypatch.setattr(dshuffle, "_basis_cache", {})
    certs = dshuffle.ds_basis(5).certificates
    assert certs["elements_pass_is_ds"] is False and certs["elements_are_lie"] is True


def test_cached_basis_result_cannot_be_changed():
    res = dshuffle.ds_basis(3)
    f3 = res.basis[0]
    with pytest.raises(AttributeError):
        res.basis = ()
    with pytest.raises(AttributeError):
        res.dimension = 2
    with pytest.raises(TypeError):
        res.basis[0] = f3.scale(2)
    with pytest.raises(AttributeError):
        res.basis.append(f3)
    with pytest.raises(TypeError):
        res.certificates["elements_are_lie"] = False
    with pytest.raises(TypeError):
        res.constraint_stats["rank"] = 0
    with pytest.raises(AttributeError):
        res.certificates["lead_coefficient"].append("2")
    again = dshuffle.ds_basis(3)
    assert again is res and again.basis == (f3,) and again.dimension == 1
    assert again.certificates["elements_are_lie"] is True
    assert again.constraint_stats["rank"] == again.constraint_stats["cols"] - 1
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["basis", "--weight", "3"]) == 0


def test_basis_result_json(basis_cache):
    obj = basis_cache(3).to_json()
    assert obj["weight"] == 3 and obj["dimension"] == 1
    assert obj["basis"][0]["terms"]


def test_weight_bound_is_enforced():
    with pytest.raises(ValueError):
        dshuffle.ds_basis(dshuffle.MAX_WEIGHT + 1)
    with pytest.raises(ValueError):
        dshuffle.ds_basis(2)


@pytest.mark.parametrize(
    "n, dim, lead", [(11, 2, ("1", "0")), (12, 2, ("0", "0")), (13, 3, ("1", "0", "0"))]
)
def test_weights_eleven_to_thirteen_are_certified(basis_cache, n, dim, lead):
    assert n <= dshuffle.MAX_WEIGHT
    res = basis_cache(n)
    assert res.dimension == dim
    assert res.certificates["lead_coefficient"] == lead
    assert res.certificates["elements_pass_is_ds"] is True
    assert res.certificates["elements_are_lie"] is True
    for f in res.basis:
        assert dshuffle.is_ds(f, strict=True)
        assert lie.is_lie(f)


# -- the sampled basis against every constraint row ----------------------------


def _typed_basis(basis) -> list:
    return [[(w, type(c), c) for w, c in f.terms.items()] for f in basis]


def _assert_matches_full_rows(res, n):
    ref = oracles.full_row_ds_basis(n)
    assert _typed_basis(res.basis) == _typed_basis(ref["basis"])
    assert res.dimension == len(ref["basis"])
    assert dict(res.constraint_stats) == ref["constraint_stats"]
    assert dict(res.certificates) == ref["certificates"]


@pytest.mark.parametrize("n", range(3, 11))
def test_sampled_basis_matches_the_full_row_reference(basis_cache, n):
    _assert_matches_full_rows(basis_cache(n), n)


def test_sampled_basis_matches_the_full_row_reference_past_the_cap(monkeypatch):
    monkeypatch.setattr(dshuffle, "MAX_WEIGHT", 11)
    monkeypatch.setattr(dshuffle, "_basis_cache", {})
    res = dshuffle.ds_basis(11)
    assert res.dimension == 2
    _assert_matches_full_rows(res, 11)


def _defining_stuffle(u: str, v: str) -> Poly:
    """st(u, v), or 0 for two powers of y: those pairs are no defining relation."""
    if set(u) == set(v) == {"y"}:
        return Poly.zero()
    return dshuffle.stuffle(u, v)


@pytest.mark.parametrize(
    "n,k", [(5, None), (5, 0), (5, -1), (6, 0), (6, -1), (7, None), (7, 0), (7, -1)]
)
def test_defining_sweep_matches_the_product_oracle(basis_cache, n, k):
    # the ds basis (empty at n = 6) plus 1/7 times the k-th Lyndon basis
    # element: every row u of the sweep has coefficient 0, so it only has
    # to be zero, and the buckets below degree n are counted unread
    d = lie.lyndon_basis(n).dimension
    coords = [0] * d
    if k is not None:
        coords[k] = Fraction(1, 7)
    f = lie.from_coords(coords, n)
    for g in basis_cache(n).basis:
        f = f + g
    report = dshuffle._stuffle_sweep(f, n)
    assert report == oracles.grouplike_sweep(poly.pi_y(f), n, _defining_stuffle, y_ending=True)
    assert report["verdict"] is (k is None)


def _record_witnesses(monkeypatch) -> list:
    """Patch the stuffle sweep to record the witness of every failure."""
    witnesses = []
    sweep = dshuffle._stuffle_sweep

    def recording(f, n):
        result = sweep(f, n)
        if not result["verdict"]:
            witnesses.append(result["witness"])
        return result

    monkeypatch.setattr(dshuffle, "_stuffle_sweep", recording)
    return witnesses


@pytest.mark.parametrize("n", range(3, 10))
def test_witness_pairs_come_back_as_stuffle_pairs(n):
    # the sweep names (u, v) with deg u <= deg v, and u <= v as codes when
    # the degrees agree, which is the reverse of the composition order
    for a, b in dshuffle.stuffle_pairs(n):
        u, v = sorted(
            (dshuffle.word_of_composition(a), dshuffle.word_of_composition(b)),
            key=lambda w: (words.degree(w), w),
        )
        witness = (words.str_from_code(u), words.str_from_code(v))
        assert dshuffle._witness_pair(witness) == (a, b)


@pytest.mark.parametrize("n", range(5, 10))
def test_refinement_from_three_pairs_reaches_ds(monkeypatch, n):
    witnesses = _record_witnesses(monkeypatch)
    pairs = dshuffle.stuffle_pairs(n)
    kernel, used = dshuffle._refine(n, pairs[:3])
    d = lie.lyndon_basis(n).dimension
    want = [lie.from_coords(v, n) for v in linalg.nullspace(dshuffle.constraint_rows(n), d)]
    assert _typed_basis(kernel) == _typed_basis(want)
    assert used[:3] == pairs[:3]
    added = used[3:]
    assert added and len(set(added)) == len(added)
    # every added row is the witness of a failed sweep, as a pair of stuffle_pairs(n)
    assert set(added) <= set(pairs)
    witness_sets = {
        frozenset(oracles.composition_of_word(w) for w in witness) for witness in witnesses
    }
    assert {frozenset(pair) for pair in added} == witness_sets


def test_cold_basis_builds_only_the_sampled_and_witness_rows(monkeypatch):
    witnesses = _record_witnesses(monkeypatch)
    built = []
    rows_of = dshuffle.constraint_rows

    def counting(n, pairs=None):
        built.append(None if pairs is None else len(pairs))
        return rows_of(n, pairs)

    monkeypatch.setattr(dshuffle, "constraint_rows", counting)
    monkeypatch.setattr(dshuffle, "_basis_cache", {})
    res = dshuffle.ds_basis(10)
    d = lie.lyndon_basis(10).dimension
    assert None not in built  # no call builds every row
    assert built[0] == d + dshuffle._SAMPLE_EXTRA
    assert sum(built) <= d + dshuffle._SAMPLE_EXTRA + len(witnesses)
    assert sum(built) < len(dshuffle.stuffle_pairs(10)) // 4
    assert res.constraint_stats["rows"] == len(dshuffle.stuffle_pairs(10)) == 1155
    assert res.certificates["elements_pass_is_ds"] is True


# -- derivation d_f and the Poisson bracket -----------------------------------


def test_d_f_is_a_derivation(f3):
    g, h = Poly.word("xy"), Poly.word("yx")
    lhs = dshuffle.d_f(f3, g * h)
    rhs = dshuffle.d_f(f3, g) * h + g * dshuffle.d_f(f3, h)
    assert lhs == rhs
    assert dshuffle.d_f(f3, Poly.word("x")) == Poly.zero()
    assert dshuffle.d_f(f3, Poly.word("y")) == lie.bracket(Poly.word("y"), f3)


def test_poisson_bracket_is_antisymmetric(f3, f5):
    assert dshuffle.poisson(f3, f5) == -dshuffle.poisson(f5, f3)
    assert dshuffle.poisson(f3, f3) == Poly.zero()


def test_poisson_bracket_closes_in_low_weight(f3, f5, basis_cache):
    br = dshuffle.poisson(f3, f5)
    assert br.degree() == 8 and lie.is_lie(br)
    assert dshuffle.is_ds(br)
    # weight 8 is one-dimensional, so the bracket is a rational multiple
    f8 = basis_cache(8).basis[0]
    lead = min(f8.terms)
    ratio = Fraction(br.terms.get(lead, 0)) / Fraction(f8.terms[lead])
    assert ratio != 0
    assert br == f8.scale(ratio)


# -- structure results on basis elements -----------------------------------------


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_antipalindromy_of_x_plus_y_part(n, basis_cache):
    for f in basis_cache(n).basis:
        fx, fy = poly.decompose_right(f)
        assert poly.is_antipalindromic(fx + fy)
        rep = moulds.antipal_sum_check(f)
        assert rep["verdict"] and rep["consistent"]


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_signed_push_sums_on_basis(n, basis_cache):
    for f in basis_cache(n).basis:
        rep = dshuffle.signed_push_sums_check(f)
        assert rep["verdict"], rep
        assert rep["A"] == f.coeff("x" * (n - 1) + "y")


def test_signed_push_sums_reject_generic_lie_elements():
    rejected = 0
    for seed in range(10):
        rep = dshuffle.signed_push_sums_check(lie.random_lie(5, seed))
        rejected += not rep["verdict"]
    assert rejected == 10
