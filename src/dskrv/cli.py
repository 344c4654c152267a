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
import sys
import time
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__, groupexp, linalg, moulds, words
from .poly import (
    Poly,
    _divided,
    coeff_to_str,
    decompose_right,
    integral,
    negate_y,
    poly_to_json,
    push_constant,
)
from .lie import NotLieError, lyndon_basis, random_lie
from .dshuffle import (
    MAX_WEIGHT,
    ds_basis,
    is_ds,
    poisson,
    signed_push_sums_check,
)
from .derivations import (
    TangentialDerivation,
    _divided_derivation,
    ds_to_krv,
    krv_to_ds,
    kv_dimensions,
    pushconst_transport,
    special_equivalences,
    trace_constant,
)


class UsageError(Exception):
    pass


# -- formatting -----------------------------------------------------------------
# A JSON report has one layout: keys sorted as strings, a two-space indent,
# and every non-ASCII or control character escaped.  _json writes it in one
# walk, as the exact text of json.dumps(..., sort_keys=True, indent=2) on the
# report's plain data; with pad=None it gives the one-line form of
# json.dumps(..., sort_keys=True).  The stdlib falls back to its pure-Python
# encoder whenever indent is set, so only its C string escaper is used here.


def _json(obj, pad: str | None = "") -> str:
    """The JSON text of a report value; pad is the indent of its line.

    Fractions are written as "n/d" strings, Polys by poly_to_json, and
    derivations, moulds and series by their to_json.  Any other type that
    JSON cannot hold raises TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # finite: a report holds no NaN or infinity
        return float.__repr__(obj)
    if isinstance(obj, Fraction):
        return encode_basestring_ascii(coeff_to_str(obj))
    if isinstance(obj, Poly):
        obj = poly_to_json(obj)
    elif isinstance(obj, (TangentialDerivation, moulds.Mould, groupexp.TruncSeries)):
        obj = obj.to_json()
    inner = None if pad is None else pad + "  "
    # a string value, the most common, is written without a call
    if isinstance(obj, dict):
        # the keys are distinct, so sorting the items never compares values
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts = [
            f"{encode_basestring_ascii(k)}: "
            f"{encode_basestring_ascii(v) if type(v) is str else _json(v, inner)}"
            for k, v in items
        ]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        parts = [encode_basestring_ascii(v) if type(v) is str else _json(v, inner) for v in obj]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not parts:
        return ends
    if pad is None:
        return ends[0] + ", ".join(parts) + ends[1]
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{ends[1]}"


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
        f"parameters: {_json(report['parameters'], None)}",
    ]
    tail = [f"verdict: {'pass' if report['ok'] else 'FAIL'}"]
    return "\n".join(head + lines + tail) + "\n"


def _emit(report: dict, args, text_lines) -> None:
    """Write the report; text_lines() builds the text body, for --format text only."""
    if args.format == "json":
        out = _json(report) + "\n"
    else:
        out = _render_text(report, text_lines())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise UsageError(f"cannot write report to {args.out}: {exc.strerror}") from exc
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
    """Reject a series order that cuts off a requested weight, or one above
    groupexp.MAX_TRUNCATION.

    exp_circle(f) at an order below the weight of f is the series 1, and
    its group-likeness checks would pass without checking anything.  The
    checks hold dense lists of 2^T entries at degree T, so an order much
    above the maximum would exhaust memory instead of failing.
    """
    if trunc > groupexp.MAX_TRUNCATION:
        raise UsageError(
            f"--truncate {trunc} is above the maximum order {groupexp.MAX_TRUNCATION}"
        )
    if trunc < max(ws):
        raise UsageError(
            f"--truncate {trunc} is below weight {max(ws)}; "
            "the truncation order must be at least every requested weight"
        )


def _per_weight(ws: list[int], record) -> tuple[bool, dict]:
    """Run record(n) -> (entry, good) at each weight: the overall verdict
    and each weight's entry under str(n)."""
    ok, payload = True, {}
    for n in ws:
        payload[str(n)], good = record(n)
        ok = ok and good
    return ok, payload


def _on_basis(n: int, check):
    """Run check(f) -> (entry, good) on every basis element of weight n:
    the basis, the entries, and whether every element is good."""
    res = ds_basis(n)
    results = [check(f) for f in res.basis]
    return res, [entry for entry, _ in results], all(good for _, good in results)


def _element_lists(ws: list[int], check, line):
    """Payload, verdict and text lines of a command that runs
    check(f, n) -> (entry, good) on every basis element: the entry list of
    each weight, and one line "weight n: line(entry)" per element."""
    ok, payload = _per_weight(ws, lambda n: _on_basis(n, lambda f: check(f, n))[1:])
    return payload, ok, lambda: [
        f"weight {n}: {line(e)}" for n, entries in payload.items() for e in entries
    ]


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


def _injection(f: Poly, n: int, image: bool = False):
    """The checks of the image d = ds_to_krv(f): d special, trace constant
    A defined, push constant of d equal to n*A, inverse round trip; and d
    itself if image is set, else None.

    The map and its checks are linear: they run on the integer numerators
    P of f, where (P, u) = integral(f), and d, A and the push constant are
    multiplied by u once.
    """
    p, u = integral(f)
    d = ds_to_krv(p)
    a = trace_constant(d)
    a = None if a is None else u * a
    fx, fy = decompose_right(d.F)
    pc = push_constant(fy - fx, u)
    round_trip = krv_to_ds(d) == p
    special = d.is_special()
    return _divided_derivation(d, u) if image else None, {
        "special": special,
        "trace_constant": a,
        "push_constant": pc,
        "push_equals_n_times_A": a is not None and pc == n * a,
        "round_trip": round_trip,
        "ok": special and a is not None and pc == n * a and round_trip,
    }


# -- subcommands -----------------------------------------------------------------
# Each returns (parameters, payload, ok, text lines), the last a function that
# builds the lines of a text report; main() writes the report.


def cmd_basis(args):
    ws = _parse_weights(args, 3, 3)

    def record(n):
        res = ds_basis(n)
        return res.to_json(), all(v for v in res.certificates.values() if isinstance(v, bool))

    def lines():  # ds_basis(n) is memoized, so this builds nothing again
        out = []
        for n in ws:
            res = ds_basis(n)
            out.append(f"weight {n}: dimension {res.dimension}")
            out.extend(f"  {poly_text(f)}" for f in res.basis)
        return out

    ok, payload = _per_weight(ws, record)
    return {"weights": ws}, payload, ok, lines


def cmd_map(args):
    ws = _parse_weights(args)

    def check(f, n):
        d, rep = _injection(f, n, image=True)
        entry = {"source": f, "derivation": d}
        entry.update((k, rep[k]) for k in ("trace_constant", "push_constant", "round_trip", "ok"))
        return entry, rep["ok"]

    def line(e):
        a, pc = (
            "none" if c is None else coeff_to_str(c)
            for c in (e["trace_constant"], e["push_constant"])
        )
        return f"A={a} push={pc} roundtrip={'yes' if e['round_trip'] else 'NO'}"

    return {"weights": ws}, *_element_lists(ws, check, line)


def cmd_bracket(args):
    if args.weight is not None or args.weights is not None:
        raise UsageError("bracket takes its weights as w1 w2, not --weight/--weights")
    na, nb = args.w1, args.w2
    for n in (na, nb):
        if n < 3 or n > MAX_WEIGHT:
            raise UsageError(f"weight {n} outside supported range 3..{MAX_WEIGHT}")
    # the cost of the bracket and its checks doubles with each weight: at 18
    # they exhaust memory instead of failing
    if na + nb > groupexp.MAX_TRUNCATION:
        raise UsageError(
            f"bracket weight {na + nb} is above the maximum {groupexp.MAX_TRUNCATION}"
        )
    ra, rb = ds_basis(na), ds_basis(nb)
    if not (0 <= args.index1 < ra.dimension and 0 <= args.index2 < rb.dimension):
        raise UsageError(
            f"basis index out of range (dims are {ra.dimension}, {rb.dimension})"
        )
    fa, fb = ra.basis[args.index1], rb.basis[args.index2]
    # the bracket, its membership and the compatibility below are all
    # (bi)linear: they run on the integer numerators of fa and fb, and only
    # the reported bracket is multiplied by their units
    (pa, ua), (pb, ub) = integral(fa), integral(fb)
    br_num = poisson(pa, pb)
    br = _divided(br_num, ua * ub)
    member = bool(br_num) and is_ds(br_num, strict=args.strict)
    # compatibility: the tangential commutator of the images matches the
    # image of the Poisson bracket
    compatible = None
    if member:
        compatible = ds_to_krv(pa).commutator(ds_to_krv(pb)) == ds_to_krv(br_num, check=False)
    ok = (not bool(br)) or (member and (compatible is not False))
    payload = {
        "bracket": br,
        "weight": na + nb,
        "is_member": member,
        "commutator_compatible": compatible,
    }

    def lines():
        return [
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
        # the checks run on the numerators p of f and are passed their u-family
        # m, which the report gives over the denominator of f
        p, m, family = moulds._numerator_family(f)
        entry = {"u_family": family}
        good = True
        if args.check in ("all", "fixed"):
            entry["mantar_fixed"] = moulds.mantar_fixed_check(p, m)
            good = all(entry["mantar_fixed"].values())
        if args.check in ("all", "rules"):
            entry["negation_rule"] = moulds.negation_rule_check(p)
            entry["translation_rule"] = moulds.translation_rule_check(p)
            good = good and entry["negation_rule"] and entry["translation_rule"]
        if args.check in ("all", "ecalle"):
            entry["ecalle"] = moulds.ecalle_identity_check(p, m)
            good = good and entry["ecalle"]["verdict"]
            if args.strict:
                entry["ecalle_bridge"] = moulds.ecalle_bridge_check(p, m)
                good = good and all(entry["ecalle_bridge"].values())
        return entry, good

    parameters = {"weights": ws, "check": args.check}
    if args.strict:
        parameters["strict"] = True
    return parameters, *_element_lists(ws, check, lambda e: f"depths {e['u_family'].depths()}")


def cmd_exp(args):
    ws = _parse_weights(args, 3, 3)
    trunc = args.truncate
    _require_truncation(trunc, ws)

    def check(f, n):
        phi = groupexp.exp_circle(f, trunc)
        rep = groupexp.group_certificate(f, phi)
        return {"series": phi, "checks": rep}, rep["verdict"]

    def line(e):
        rep = e["checks"]
        return (
            f"trunc {trunc} shuffle-pairs {rep['shuffle_grouplike']['pairs']} stuffle-pairs "
            f"{rep['stuffle_grouplike']['pairs']} verdict {'pass' if rep['verdict'] else 'FAIL'}"
        )

    return {"weights": ws, "truncate": trunc}, *_element_lists(ws, check, line)


# -- verification suites ----------------------------------------------------------
# A suite runs at one weight: (args, n) -> (entry, good).  A per-element
# suite is declared from its check (args, f, n) -> (entry, good) on one
# basis element.


def _element_suite(check, fields=()):
    """The suite that runs check on every basis element.  Each weight's entry
    holds the dimension, the element entries and the named fields of
    {"ok": the weight's verdict, "vacuous": no basis element}."""

    def suite(args, n):
        res, entries, good = _on_basis(n, lambda f: check(args, f, n))
        extra = {"ok": good, "vacuous": res.dimension == 0}
        entry = {"dimension": res.dimension, "elements": entries, **{k: extra[k] for k in fields}}
        return entry, good

    return suite


def _passes(rep, key="verdict"):
    """The element entry rep, good when rep[key] is."""
    return rep, rep[key]


def _check_thm11(args, f, n):
    """End-to-end injection: specialness, trace constant, push transport,
    inverse roundtrip."""
    return _passes(_injection(f, n)[1], "ok")


def _suite_thm12(args, n):
    """The two models of the Kashiwara-Vergne space (trace condition vs
    antipalindromy + push-constancy) have equal dimension and span."""
    rep = kv_dimensions(n)
    good = rep["dim_krv"] == rep["dim_vkv"] and rep["same_span"]
    fields = ("dim_special", "dim_krv", "dim_vkv", "same_span")
    return {**{k: rep[k] for k in fields}, "ok": good}, good


def _suite_thm21(args, n):
    """Five equivalent characterizations of specialness agree on seeded
    random Lie elements (and the full Lyndon basis at low weights)."""
    agreed, witness = _sample(args, n, special_equivalences, lambda rep: rep["agree"])
    sweep, sweep_ok = None, True
    if n <= 4:
        lb = lyndon_basis(n)
        sweep_ok = all(special_equivalences(e)["agree"] for e in lb.expansions)
        sweep = {"basis_size": len(lb.expansions), "all_agree": sweep_ok}
    good = len(agreed) == args.count
    return {
        "samples": args.count,
        "agreements": len(agreed),
        "special_found": sum(1 for rep in agreed if rep["existence"]),
        "lyndon_sweep": sweep,
        "witness": witness,
        "ok": good,
    }, good and sweep_ok


def _check_thm33(args, f, n):
    """Antipalindromy of f_x + f_y."""
    rep = moulds.antipal_sum_check(f)
    return rep, rep["verdict"] and rep["consistent"]


def _check_thm34(args, f, n):
    """Signed push-sum law."""
    return _passes(signed_push_sums_check(f))


def _check_lemma35(args, f, n):
    """Push-constant transport through the substitution x -> -x-y."""
    return _passes(pushconst_transport(negate_y(f)), "ok")


def _suite_lemmaA2(args, n):
    """mantar fixes the u-family of Lie elements; coefficients match the
    expansion in ad(x)-products."""
    expansions = lyndon_basis(n).expansions
    agree, witness = 0, None
    for e in expansions:
        rep = moulds.mantar_fixed_check(e)
        if all(rep.values()):
            agree += 1
        elif witness is None:
            witness = {"element": e, "report": rep}
    good = agree == len(expansions)
    return {"basis_size": len(expansions), "all_pass": good, "witness": witness}, good


def _check_ecalleA8(args, f, n):
    """Operator identity teru = push.mantar.teru.mantar, all depths; strict
    mode adds the divided-difference bridge."""
    entry = {"identity": moulds.ecalle_identity_check(f)}
    good = entry["identity"]["verdict"]
    if args.strict:
        entry["bridge"] = moulds.ecalle_bridge_check(f)
        good = good and all(entry["bridge"].values())
    return entry, good


def _suite_propA3(args, n):
    """Divided-difference certificate for antipalindromy of f_x + f_y:
    formula agreement on random Lie elements, truth on basis elements."""
    agreed, witness = _sample(
        args,
        n,
        moulds.antipal_bridge_check,
        lambda rep: rep["formula_matches_direct_family"] and rep["agrees_with_direct_predicate"],
    )
    basis_true = _on_basis(n, lambda f: (None, moulds.antipal_bridge_check(f)["verdict"]))[2]
    return {
        "samples": args.count,
        "formula_agreements": len(agreed),
        "basis_verdicts_true": basis_true,
        "witness": witness,
    }, len(agreed) == args.count and basis_true


def _check_group49(args, f, n):
    """Group-likeness of exp for the shuffle pairing."""
    return _passes(groupexp.grouplike_shuffle_check(groupexp.exp_circle(f, args.truncate)))


def _check_group410(args, f, n):
    """Group-likeness of the corrected series for the stuffle pairing."""
    return _passes(groupexp.grouplike_stuffle_check(groupexp.exp_circle(f, args.truncate)))


def _check_thm42(args, f, n):
    """Composite group-level certificate: group-like exponential, Lie
    logarithm roundtrip, automorphism fixing x + y."""
    return _passes(groupexp.group_certificate(f, groupexp.exp_circle(f, args.truncate)))


# The one registry of suites: name -> (suite, default weight range, whether
# it reads --truncate, which must then be at least every requested weight).
SUITES = {
    "thm11": (_element_suite(_check_thm11), (3, 8), False),
    "thm12": (_suite_thm12, (3, 7), False),
    "thm21": (_suite_thm21, (3, 6), False),
    "thm33": (_element_suite(_check_thm33, ("ok",)), (3, 8), False),
    "thm34": (_element_suite(_check_thm34, ("ok",)), (3, 8), False),
    "lemma35": (_element_suite(_check_lemma35), (3, 8), False),
    "lemmaA2": (_suite_lemmaA2, (3, 6), False),
    "ecalleA8": (_element_suite(_check_ecalleA8, ("vacuous",)), (3, 8), False),
    "propA3": (_suite_propA3, (3, 6), False),
    "group49": (_element_suite(_check_group49), (3, 5), True),
    "group410": (_element_suite(_check_group410), (3, 5), True),
    "thm42": (_element_suite(_check_thm42), (3, 5), True),
}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    suite, (lo, hi), truncates = SUITES[args.suite]
    ws = _parse_weights(args, lo, hi)
    if truncates:
        _require_truncation(args.truncate, ws)
    ok, payload = _per_weight(ws, lambda n: suite(args, n))
    parameters = {
        "suite": args.suite,
        "weights": ws,
        "count": args.count,
        "truncate": args.truncate,
        "strict": args.strict,
    }

    def lines():
        return [f"suite {args.suite}: weights {ws}"] + [
            f"  weight {n}: {_json(payload[str(n)], None)[:200]}"
            for n in sorted(ws)
        ]

    return parameters, payload, ok, lines


# -- argument parsing --------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)  # the flags of every command
    common.add_argument("--weight", type=int, help="single weight")
    common.add_argument("--weights", help="range a..b or comma list")
    common.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    common.add_argument("--count", type=int, default=100, help="random samples per weight")
    common.add_argument(
        "--truncate",
        type=int,
        default=groupexp.DEFAULT_TRUNCATION,
        help="series truncation order, from the largest weight to "
        f"{groupexp.MAX_TRUNCATION} for exp and the group suites",
    )
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument("--strict", action="store_true", help="enable redundant cross-checks")
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")

    ap = argparse.ArgumentParser(
        prog="dskrv",
        description="exact workbench for double shuffle and Kashiwara-Vergne computations",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(fn=fn)
        return p

    command("basis", cmd_basis, "compute a double shuffle basis")
    p = command("verify", cmd_verify, "run a named verification suite")
    p.add_argument("suite", help=", ".join(sorted(SUITES)))
    command("map", cmd_map, "inject basis elements into the Kashiwara-Vergne algebra")
    p = command("bracket", cmd_bracket, "Poisson bracket of two basis elements")
    p.add_argument("w1", type=int)
    p.add_argument("w2", type=int)
    p.add_argument("--index1", type=int, default=0)
    p.add_argument("--index2", type=int, default=0)
    p = command("mould", cmd_mould, "mould translation and operator checks")
    p.add_argument("--check", choices=("all", "fixed", "rules", "ecalle"), default="all")
    command("exp", cmd_exp, "group exponential with group-likeness checks")
    return ap


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
        parameters, payload, ok, lines = args.fn(args)
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
    except (UsageError, ValueError, NotLieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
