"""Command-line workbench.

Subcommands:
  basis    compute a double shuffle basis at one weight
  verify   run a named verification suite over a weight range
  map      construct the injection into the Kashiwara-Vergne algebra
  bracket  Poisson bracket of two basis elements, with membership check
  mould    mould translations and operator checks for a basis element
  exp      group exponential of a basis element, with group-likeness

Output is a deterministic JSON (or text) report; timings are omitted
unless --timings is given so that identical invocations produce
byte-identical output.  Exit codes: 0 all checks pass, 1 a mathematical
check failed (witness serialized in the report), 2 usage or internal
error (no report).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__, words
from . import linalg
from .poly import (
    Poly,
    coeff_to_str,
    decompose_right,
    negate_y,
    poly_to_json,
    push_constant,
)
from .lie import NotLieError, lyndon_basis, random_lie
from .dshuffle import (
    MAX_WEIGHT,
    antipal_sum_check,
    ds_basis,
    is_ds,
    poisson,
    signed_push_sums_check,
)
from .derivations import (
    TangentialDerivation,
    ds_to_krv,
    krv_to_ds,
    kv_dimensions,
    pushconst_transport,
    special_equivalences,
    trace_constant,
)
from . import moulds
from . import groupexp


class UsageError(Exception):
    pass


# -- formatting -----------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert report values to JSON-encodable data."""
    if isinstance(obj, Fraction):
        return coeff_to_str(obj)
    if isinstance(obj, Poly):
        return poly_to_json(obj)
    if isinstance(obj, TangentialDerivation):
        return obj.to_json()
    if isinstance(obj, moulds.Mould):
        return obj.to_json()
    if isinstance(obj, groupexp.TruncSeries):
        return obj.to_json()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def poly_text(f: Poly) -> str:
    """Exponent notation, e.g. x^2y - 2 xyx + y x^2."""
    if not f:
        return "0"
    parts = []
    for w, c in f.items():
        factors = []
        exps = words.exponents_of(w)
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x")
            elif e > 1:
                factors.append(f"x^{e}")
            if i < len(exps) - 1:
                factors.append("y")
        body = " ".join(factors) if factors else "1"
        cs = coeff_to_str(c)
        if cs == "1":
            term = body
        elif cs == "-1":
            term = f"- {body}"
        else:
            term = f"{cs} {body}"
        parts.append(term)
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def _render_text(report: dict, lines: list[str]) -> str:
    head = [
        f"command: {report['command']}",
        f"version: {report['version']}",
        f"parameters: {json.dumps(report['parameters'], sort_keys=True)}",
    ]
    tail = [f"verdict: {'pass' if report['ok'] else 'FAIL'}"]
    return "\n".join(head + lines + tail) + "\n"


def _emit(report: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        out = _render_text(report, text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _parse_weights(args, default_lo: int = 3, default_hi: int = 8) -> list[int]:
    if args.weights is not None:
        if args.weight is not None:
            raise UsageError("give --weight or --weights, not both")
        txt = args.weights
        if ".." in txt:
            lo, hi = txt.split("..", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError as exc:
                raise UsageError(f"bad weight range {txt!r}") from exc
            if lo > hi:
                raise UsageError(f"empty weight range {txt!r}")
            ws = list(range(lo, hi + 1))
        else:
            try:
                ws = [int(p) for p in txt.split(",")]
            except ValueError as exc:
                raise UsageError(f"bad weight list {txt!r}") from exc
    elif args.weight is not None:
        ws = [args.weight]
    else:
        ws = list(range(default_lo, default_hi + 1))
    for w in ws:
        if w < 2 or w > MAX_WEIGHT:
            raise UsageError(f"weight {w} outside supported range 2..{MAX_WEIGHT}")
    if len(set(ws)) < len(ws):
        raise UsageError(f"weight list {args.weights!r} repeats a weight")
    return ws


def _require_truncation(trunc: int, ws: list[int]) -> None:
    """Reject a series order that cuts off a requested weight.

    exp_circle(f) at an order below the weight of f is the series 1, and
    its group-likeness checks would pass without checking anything.
    """
    if trunc < max(ws):
        raise UsageError(
            f"--truncate {trunc} is below weight {max(ws)}; "
            "the truncation order must be at least every requested weight"
        )


def _per_element(ws: list[int], check) -> tuple[bool, list]:
    """Run check(f, n) -> (entry, good) on every basis element of each weight.

    Returns the overall verdict and one (n, basis, entries, good) per
    requested weight, where good is that weight's verdict.
    """
    per = []
    for n in ws:
        res = ds_basis(n)
        results = [check(f, n) for f in res.basis]
        per.append((n, res, [entry for entry, _ in results], all(g for _, g in results)))
    return all(good for *_, good in per), per


def _keyed(run, key: str = "verdict"):
    """The per-element check that records run(f) and passes on its `key`."""

    def check(f, n):
        rep = run(f)
        return rep, rep[key]

    return check


def _elements(ws: list[int], check, extra=lambda res, good: {}) -> tuple[bool, dict]:
    """Suite payload of a per-element check: each weight's dimension and
    entries, plus the fields extra(basis, good) adds to its record."""
    ok, per = _per_element(ws, check)
    return ok, {
        str(n): {"dimension": res.dimension, "elements": entries, **extra(res, good)}
        for n, res, entries, good in per
    }


def _sample(args, n: int, run, passes) -> tuple[list, dict | None]:
    """Run `run` on args.count seeded random Lie elements of weight n.

    Returns the reports that pass and the witness of the first failure.
    """
    if args.count == 0:
        raise UsageError("--count 0 draws no random samples, so the suite would check nothing")
    passed, witness = [], None
    for seed in range(args.seed, args.seed + args.count):
        rep = run(random_lie(n, seed))
        if passes(rep):
            passed.append(rep)
        elif witness is None:
            witness = {"seed": seed, "report": rep}
    return passed, witness


def _injection(f: Poly, n: int):
    """The image d = ds_to_krv(f) and its checks: d special, trace constant
    A defined, push constant of d equal to n*A, inverse round trip."""
    d = ds_to_krv(f)
    a = trace_constant(d)
    fx, fy = decompose_right(d.F)
    pc = push_constant(fy - fx)
    back = krv_to_ds(d)
    special = d.is_special()
    return d, {
        "special": special,
        "trace_constant": a,
        "push_constant": pc,
        "push_equals_n_times_A": pc == (n * a if a is not None else None),
        "round_trip": back == f,
        "ok": special and a is not None and pc == n * a and back == f,
    }


# -- subcommands -----------------------------------------------------------------
# Each returns (parameters, payload, ok, text lines); main() writes the report.


def cmd_basis(args):
    ws = _parse_weights(args, 3, 3)
    _, per = _per_element(ws, lambda f, n: (f"  {poly_text(f)}", True))
    lines = []
    for n, res, texts, _ in per:
        lines += [f"weight {n}: dimension {res.dimension}", *texts]
    ok = all(
        v for _, res, _, _ in per for v in res.certificates.values() if isinstance(v, bool)
    )
    return {"weights": ws}, {str(n): res.to_json() for n, res, _, _ in per}, ok, lines


def cmd_map(args):
    ws = _parse_weights(args)

    def check(f, n):
        d, rep = _injection(f, n)
        entry = {"source": f, "derivation": d}
        entry.update((k, rep[k]) for k in ("trace_constant", "push_constant", "round_trip", "ok"))
        return entry, rep["ok"]

    ok, per = _per_element(ws, check)
    lines = [
        f"weight {n}: A={coeff_to_str(e['trace_constant'])} "
        f"push={coeff_to_str(e['push_constant'])} "
        f"roundtrip={'yes' if e['round_trip'] else 'NO'}"
        for n, _, entries, _ in per
        for e in entries
    ]
    return {"weights": ws}, {str(n): entries for n, _, entries, _ in per}, ok, lines


def cmd_bracket(args):
    if args.weight is not None or args.weights is not None:
        raise UsageError("bracket takes its weights as w1 w2, not --weight/--weights")
    na, nb = args.w1, args.w2
    for n in (na, nb):
        if n < 3 or n > MAX_WEIGHT:
            raise UsageError(f"weight {n} outside supported range 3..{MAX_WEIGHT}")
    ra, rb = ds_basis(na), ds_basis(nb)
    if not (0 <= args.index1 < ra.dimension and 0 <= args.index2 < rb.dimension):
        raise UsageError(
            f"basis index out of range (dims are {ra.dimension}, {rb.dimension})"
        )
    fa, fb = ra.basis[args.index1], rb.basis[args.index2]
    br = poisson(fa, fb)
    member = bool(br) and is_ds(br, strict=args.strict)
    # compatibility: the tangential commutator of the images matches the
    # image of the Poisson bracket
    compatible = None
    if member:
        da, db = ds_to_krv(fa), ds_to_krv(fb)
        compatible = da.commutator(db) == ds_to_krv(br, check=False)
    ok = (not bool(br)) or (member and (compatible is not False))
    payload = {
        "bracket": br,
        "weight": na + nb,
        "is_member": member,
        "commutator_compatible": compatible,
    }
    lines = [
        f"bracket weight {na + nb}: member={member} compatible={compatible}",
        f"  {poly_text(br)}",
    ]
    parameters = {"w1": na, "w2": nb, "index1": args.index1, "index2": args.index2}
    if args.strict:  # absent by default, so default reports keep their bytes
        parameters["strict"] = True
    return parameters, payload, ok, lines


def cmd_mould(args):
    ws = _parse_weights(args, 3, 3)

    def check(f, n):
        entry = {"u_family": moulds.u_family(f)}
        good = True
        if args.check in ("all", "fixed"):
            entry["mantar_fixed"] = moulds.mantar_fixed_check(f)
            good = all(entry["mantar_fixed"].values())
        if args.check in ("all", "rules"):
            entry["negation_rule"] = moulds.negation_rule_check(f)
            entry["translation_rule"] = moulds.translation_rule_check(f)
            good = good and entry["negation_rule"] and entry["translation_rule"]
        if args.check in ("all", "ecalle"):
            entry["ecalle"] = moulds.ecalle_identity_check(f)
            good = good and entry["ecalle"]["verdict"]
            if args.strict:
                entry["ecalle_bridge"] = moulds.ecalle_bridge_check(f)
                good = good and all(entry["ecalle_bridge"].values())
        return entry, good

    ok, per = _per_element(ws, check)
    lines = [
        f"weight {n}: depths {e['u_family'].depths()}" for n, _, entries, _ in per for e in entries
    ]
    payload = {str(n): entries for n, _, entries, _ in per}
    parameters = {"weights": ws, "check": args.check}
    if args.strict:
        parameters["strict"] = True
    return parameters, payload, ok, lines


def cmd_exp(args):
    ws = _parse_weights(args, 3, 3)
    trunc = args.truncate
    _require_truncation(trunc, ws)

    def check(f, n):
        rep = groupexp.group_injection_check(f, trunc)
        return {"series": groupexp.exp_circle(f, trunc), "checks": rep}, rep["verdict"]

    ok, per = _per_element(ws, check)
    lines = [
        f"weight {n}: trunc {trunc} shuffle-pairs "
        f"{e['checks']['shuffle_grouplike']['pairs']} stuffle-pairs "
        f"{e['checks']['stuffle_grouplike']['pairs']} verdict "
        f"{'pass' if e['checks']['verdict'] else 'FAIL'}"
        for n, _, entries, _ in per
        for e in entries
    ]
    payload = {str(n): entries for n, _, entries, _ in per}
    return {"weights": ws, "truncate": trunc}, payload, ok, lines


# -- verification suites ----------------------------------------------------------
# Each takes (args, weights) and returns (ok, payload by weight).


def _suite_thm11(args, ws):
    """End-to-end injection: specialness, trace constant, push transport,
    inverse roundtrip, for every basis element at each weight."""

    def check(f, n):
        rep = _injection(f, n)[1]
        return rep, rep["ok"]

    return _elements(ws, check)


def _suite_thm12(args, ws):
    """The two models of the Kashiwara-Vergne space (trace condition vs
    antipalindromy + push-constancy) have equal dimension and span."""
    out = {}
    ok = True
    for n in ws:
        rep = kv_dimensions(n)
        good = rep["dim_krv"] == rep["dim_vkv"] and rep["same_span"]
        ok = ok and good
        out[str(n)] = {
            "dim_special": rep["dim_special"],
            "dim_krv": rep["dim_krv"],
            "dim_vkv": rep["dim_vkv"],
            "same_span": rep["same_span"],
            "ok": good,
        }
    return ok, out


def _suite_thm21(args, ws):
    """Five equivalent characterizations of specialness agree on seeded
    random Lie elements (and the full Lyndon basis at low weights)."""
    out = {}
    ok = True
    for n in ws:
        agreed, witness = _sample(args, n, special_equivalences, lambda rep: rep["agree"])
        sweep = None
        if n <= 4:
            lb = lyndon_basis(n)
            sweep_ok = all(
                special_equivalences(e)["agree"] for e in lb.expansions
            )
            sweep = {"basis_size": len(lb.expansions), "all_agree": sweep_ok}
            ok = ok and sweep_ok
        good = len(agreed) == args.count
        ok = ok and good
        out[str(n)] = {
            "samples": args.count,
            "agreements": len(agreed),
            "special_found": sum(1 for rep in agreed if rep["existence"]),
            "lyndon_sweep": sweep,
            "witness": witness,
            "ok": good,
        }
    return ok, out


def _suite_thm33(args, ws):
    """Antipalindromy of f_x + f_y on every basis element."""

    def check(f, n):
        rep = antipal_sum_check(f)
        return rep, rep["verdict"] and rep["consistent"]

    return _elements(ws, check, lambda res, good: {"ok": good})


def _suite_thm34(args, ws):
    """Signed push-sum law on every basis element."""
    return _elements(ws, _keyed(signed_push_sums_check), lambda res, good: {"ok": good})


def _suite_lemma35(args, ws):
    """Push-constant transport through the substitution x -> -x-y."""
    return _elements(ws, _keyed(lambda f: pushconst_transport(negate_y(f)), "ok"))


def _suite_lemmaA2(args, ws):
    """mantar fixes the u-family of Lie elements; coefficients match the
    expansion in ad(x)-products."""
    out = {}
    ok = True
    for n in ws:
        lb = lyndon_basis(n)
        agree = 0
        witness = None
        for e in lb.expansions:
            rep = moulds.mantar_fixed_check(e)
            if all(rep.values()):
                agree += 1
            elif witness is None:
                witness = {"element": e, "report": rep}
        good = agree == len(lb.expansions)
        ok = ok and good
        out[str(n)] = {
            "basis_size": len(lb.expansions),
            "all_pass": good,
            "witness": witness,
        }
    return ok, out


def _suite_ecalleA8(args, ws):
    """Operator identity teru = push.mantar.teru.mantar on every basis
    element, all depths; strict mode adds the divided-difference bridge."""

    def check(f, n):
        entry = {"identity": moulds.ecalle_identity_check(f)}
        good = entry["identity"]["verdict"]
        if args.strict:
            entry["bridge"] = moulds.ecalle_bridge_check(f)
            good = good and all(entry["bridge"].values())
        return entry, good

    return _elements(ws, check, lambda res, good: {"vacuous": res.dimension == 0})


def _suite_propA3(args, ws):
    """Divided-difference certificate for antipalindromy of f_x + f_y:
    formula agreement on random Lie elements, truth on basis elements."""
    samples = {
        n: _sample(
            args,
            n,
            moulds.antipal_bridge_check,
            lambda rep: rep["formula_matches_direct_family"] and rep["agrees_with_direct_predicate"],
        )
        for n in ws
    }
    _, per = _per_element(ws, lambda f, n: (None, moulds.antipal_bridge_check(f)["verdict"]))
    out = {}
    ok = True
    for n, _, _, basis_true in per:
        agreed, witness = samples[n]
        ok = ok and len(agreed) == args.count and basis_true
        out[str(n)] = {
            "samples": args.count,
            "formula_agreements": len(agreed),
            "basis_verdicts_true": basis_true,
            "witness": witness,
        }
    return ok, out


def _suite_group49(args, ws):
    """Group-likeness of exp for the shuffle pairing on basis elements."""
    return _elements(
        ws,
        _keyed(lambda f: groupexp.grouplike_shuffle_check(groupexp.exp_circle(f, args.truncate))),
    )


def _suite_group410(args, ws):
    """Group-likeness of the corrected series for the stuffle pairing."""
    return _elements(
        ws,
        _keyed(lambda f: groupexp.grouplike_stuffle_check(groupexp.exp_circle(f, args.truncate))),
    )


def _suite_thm42(args, ws):
    """Composite group-level certificate: group-like exponential, Lie
    logarithm roundtrip, automorphism fixing x + y."""
    return _elements(ws, _keyed(lambda f: groupexp.group_injection_check(f, args.truncate)))


# name -> (suite, default weight range)
SUITES = {
    "thm11": (_suite_thm11, (3, 8)),
    "thm12": (_suite_thm12, (3, 7)),
    "thm21": (_suite_thm21, (3, 6)),
    "thm33": (_suite_thm33, (3, 8)),
    "thm34": (_suite_thm34, (3, 8)),
    "lemma35": (_suite_lemma35, (3, 8)),
    "lemmaA2": (_suite_lemmaA2, (3, 6)),
    "ecalleA8": (_suite_ecalleA8, (3, 8)),
    "propA3": (_suite_propA3, (3, 6)),
    "group49": (_suite_group49, (3, 5)),
    "group410": (_suite_group410, (3, 5)),
    "thm42": (_suite_thm42, (3, 5)),
}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    suite, (lo, hi) = SUITES[args.suite]
    ws = _parse_weights(args, lo, hi)
    if args.suite in ("group49", "group410", "thm42"):
        _require_truncation(args.truncate, ws)
    ok, payload = suite(args, ws)
    parameters = {
        "suite": args.suite,
        "weights": ws,
        "count": args.count,
        "truncate": args.truncate,
        "strict": args.strict,
    }
    lines = [f"suite {args.suite}: weights {ws}"]
    for k in sorted(payload, key=lambda s: int(s) if s.isdigit() else 0):
        v = payload[k]
        lines.append(f"  weight {k}: {json.dumps(_jsonable(v), sort_keys=True)[:200]}")
    return parameters, payload, ok, lines


# -- argument parsing --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", type=int, help="single weight")
    p.add_argument("--weights", help="range a..b or comma list")
    p.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    p.add_argument("--count", type=int, default=100, help="random samples per weight")
    p.add_argument(
        "--truncate",
        type=int,
        default=groupexp.DEFAULT_TRUNCATION,
        help="series truncation order, at least every weight for exp and the group suites",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--strict", action="store_true", help="enable redundant cross-checks")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dskrv",
        description="exact workbench for double shuffle and Kashiwara-Vergne computations",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("basis", help="compute a double shuffle basis")
    _add_common(p)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=", ".join(sorted(SUITES)))
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("map", help="inject basis elements into the Kashiwara-Vergne algebra")
    _add_common(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("bracket", help="Poisson bracket of two basis elements")
    p.add_argument("w1", type=int)
    p.add_argument("w2", type=int)
    p.add_argument("--index1", type=int, default=0)
    p.add_argument("--index2", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("mould", help="mould translation and operator checks")
    p.add_argument(
        "--check",
        choices=("all", "fixed", "rules", "ecalle"),
        default="all",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_mould)

    p = sub.add_parser("exp", help="group exponential with group-likeness checks")
    _add_common(p)
    p.set_defaults(fn=cmd_exp)

    return ap


def _report(args, t0: float, parameters: dict, payload, ok: bool, lines: list[str]) -> int:
    report = {
        "command": args.cmd,
        "version": __version__,
        "parameters": parameters,
        "kernel": linalg.KERNEL,
        "seed": args.seed,
        "payload": payload,
        "ok": ok,
    }
    if args.timings:
        report["timings"] = {"total": round(time.time() - t0, 3)}
    _emit(report, args, lines)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.count < 0:
            raise UsageError(f"--count must be at least 0, got {args.count}")
        t0 = time.time()
        return _report(args, t0, *args.fn(args))
    except (UsageError, ValueError, NotLieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
