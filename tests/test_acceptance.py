"""Acceptance criteria for the package, one test per criterion.

Each test prints exactly one ``[PRIMARY] criterion N: PASS/FAIL`` line
(written past pytest's capture so the lines always appear in the run
log) and then asserts.  All comparisons are exact rational arithmetic;
there are no tolerances anywhere.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import oracles
from dskrv import cli, derivations, dshuffle, groupexp, lie, moulds, poly, words
from dskrv.poly import Poly

EXPECTED_DIMENSIONS = {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1, 9: 1}


def report(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"[PRIMARY] criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_dimensions_certified_by_independent_oracle(capsys):
    t0 = time.monotonic()
    got: dict[int, int] = {}
    certified = True
    for n in range(3, 10):
        basis = dshuffle.ds_basis(n)
        candidates = [
            {words.str_from_code(w): Fraction(c) for w, c in f.terms.items()}
            for f in basis.basis
        ]
        cert = oracles.certified_dimension(n, candidates)
        certified = certified and cert["certified"]
        got[n] = basis.dimension
        if cert["upper_bound"] != basis.dimension:
            certified = False
    elapsed = time.monotonic() - t0
    ok = certified and got == EXPECTED_DIMENSIONS and elapsed <= 120
    report(
        capsys,
        1,
        ok,
        f"dimensions {[got[n] for n in range(3, 10)]} at weights 3..9 certified "
        f"against the monomial-level oracle in {elapsed:.1f}s (limit 120s)",
    )
    assert got == EXPECTED_DIMENSIONS
    assert certified
    assert elapsed <= 120


def test_criterion_2_antipalindromy_and_signed_push_sums(capsys):
    checked = 0
    ok = True
    for n in range(3, 10):
        for f in dshuffle.ds_basis(n).basis:
            fx, fy = poly.decompose_right(f)
            if not poly.is_antipalindromic(fx + fy):
                ok = False
            push_rep = dshuffle.signed_push_sums_check(f)
            if not push_rep["verdict"]:
                ok = False
            if fy.terms.get(words.y_power(n - 1), 0) != 0:
                ok = False
            if push_rep["A"] != f.coeff((1 << n) | 1):
                ok = False
            checked += 1
    report(
        capsys,
        2,
        ok,
        f"antipalindromy of f_x + f_y and the signed push-sum law hold exactly "
        f"on all {checked} basis elements, weights 3..9",
    )
    assert ok


def test_criterion_3_five_equivalent_conditions(capsys):
    agreements = 0
    ok = True
    for n in range(3, 8):
        for seed in range(100):
            rep = derivations.special_equivalences(lie.random_lie(n, seed))
            if not rep["agree"]:
                ok = False
            agreements += 1
    swept = 0
    for n in (3, 4):
        for expansion in lie.lyndon_basis(n).expansions:
            rep = derivations.special_equivalences(expansion)
            if not rep["agree"]:
                ok = False
            swept += 1
    report(
        capsys,
        3,
        ok,
        f"five specialness conditions agree pairwise on {agreements} seeded "
        f"random Lie elements (degrees 3..7) and the full {swept}-element "
        f"Lyndon sweep at degrees 3..4",
    )
    assert ok


def test_criterion_4_embedding_end_to_end(capsys):
    checked = 0
    ok = True
    for n in range(3, 9):
        for f in dshuffle.ds_basis(n).basis:
            d = derivations.ds_to_krv(f)
            if d.special_residual() != Poly.zero():
                ok = False
            a = derivations.trace_constant(d)
            if a is None or not derivations.krv_check(d):
                ok = False
            fx, fy = poly.decompose_right(d.F)
            if poly.push_constant(fy - fx) != n * a:
                ok = False
            checked += 1
    report(
        capsys,
        4,
        ok,
        f"all {checked} basis elements (weights 3..8) map to special "
        f"derivations with exact rational trace constant A and "
        f"push-constant = n*A",
    )
    assert ok


def test_criterion_5_bracket_compatibility_and_injectivity(capsys):
    f3 = dshuffle.ds_basis(3).basis[0]
    f5 = dshuffle.ds_basis(5).basis[0]
    br = dshuffle.poisson(f3, f5)
    member = dshuffle.is_ds(br)

    injective = True
    for n in range(3, 9):
        basis = dshuffle.ds_basis(n).basis
        if not basis:
            continue
        rows = []
        for f in basis:
            d = derivations.ds_to_krv(f)
            rows.append([Fraction(d.F.terms.get(w, 0)) for w in words.all_words(n)])
        if oracles.rank(rows, 1 << n) != len(basis):
            injective = False

    da = derivations.ds_to_krv(f3)
    db = derivations.ds_to_krv(f5)
    compatible = da.commutator(db) == derivations.ds_to_krv(br, check=False)

    ok = member and injective and compatible
    report(
        capsys,
        5,
        ok,
        "the weight-3/weight-5 bracket lands in the weight-8 space, images "
        "have full rank at weights 3..8, and the derivation bracket matches "
        "the image of the bracket exactly",
    )
    assert member and injective and compatible


def test_criterion_6_depth_indexed_family_suite(capsys):
    ok = True
    lyndon_checked = 0
    for n in range(3, 7):
        for expansion in lie.lyndon_basis(n).expansions:
            rep = moulds.mantar_fixed_check(expansion)
            if not (rep["mantar_fixes"] and rep["coefficients_match"] and rep["round_trip"]):
                ok = False
            lyndon_checked += 1

    rules_checked = 0
    for n in range(3, 7):
        for seed in range(50):
            f = lie.random_lie(n, seed)
            if not moulds.negation_rule_check(f):
                ok = False
            if not moulds.translation_rule_check(f):
                ok = False
            rules_checked += 1

    exchange_checked = 0
    for n in range(3, 9):
        for f in dshuffle.ds_basis(n).basis:
            rep = moulds.ecalle_identity_check(f)
            if not (rep["verdict"] and all(rep["per_depth"].values())):
                ok = False
            exchange_checked += 1

    bridge_checked = 0
    for n in range(3, 7):
        for seed in range(50):
            f = lie.random_lie(n, seed)
            rep = moulds.antipal_bridge_check(f)
            if not (rep["formula_matches_direct_family"] and rep["agrees_with_direct_predicate"]):
                ok = False
            bridge_checked += 1

    report(
        capsys,
        6,
        ok,
        f"family operators: mantar fixes all {lyndon_checked} Lyndon "
        f"expansions (3..6), negation/translation rules hold on "
        f"{rules_checked} random elements, the exchange identity holds at "
        f"every depth on all {exchange_checked} basis elements (3..8), and "
        f"the divided-difference certificate agrees on {bridge_checked} "
        f"random elements",
    )
    assert ok


def test_criterion_7_group_level(capsys):
    t0 = time.monotonic()
    f3 = dshuffle.ds_basis(3).basis[0]
    phi = groupexp.exp_circle(f3, 9)
    sh = groupexp.grouplike_shuffle_check(phi)
    st = groupexp.grouplike_stuffle_check(phi)
    d = derivations.ds_to_krv(f3)
    x_plus_y = Poly.word("x") + Poly.word("y")
    fixes = groupexp.exp_derivation(d, x_plus_y, 12) == x_plus_y
    elapsed = time.monotonic() - t0
    ok = sh["verdict"] and st["verdict"] and fixes and elapsed <= 60
    report(
        capsys,
        7,
        ok,
        f"exp of the weight-3 generator is group-like for both pairings "
        f"({sh['pairs']} shuffle pairs, {st['pairs']} stuffle pairs at "
        f"order 9) and exp(D) fixes x + y through degree 12, in "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert sh["verdict"] and st["verdict"] and fixes
    assert elapsed <= 60


def test_criterion_8_weight10_benchmark_soft(capsys):
    t0 = time.monotonic()
    code = cli.main(["basis", "--weight", "10", "--timings"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    rep = json.loads(out)
    ok = code == 0 and rep["ok"] and "timings" in rep
    within = elapsed <= 300
    report(
        capsys,
        8,
        ok,
        f"weight-10 basis (dimension {rep['payload']['10']['dimension']}) "
        f"computed in {elapsed:.1f}s with timings recorded in the run report "
        f"(soft target 300s: {'met' if within else 'exceeded, non-gating'})",
    )
    assert code == 0 and rep["ok"]
    assert "timings" in rep
