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
check failed (witness serialized in the report), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _base_report(args, command: str, parameters: dict) -> dict:
    report = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "kernel": linalg.KERNEL,
    }
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    return report


def _finish(report: dict, args, ok: bool, timings: dict, text_lines: list[str]) -> int:
    report["ok"] = ok
    if args.timings:
        report["timings"] = {k: round(v, 3) for k, v in timings.items()}
    _emit(report, args, text_lines)
    return 0 if ok else 1


def _parse_weights(args, default_lo: int = 3, default_hi: int = 8) -> list[int]:
    if getattr(args, "weights", None):
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
    elif getattr(args, "weight", None) is not None:
        ws = [args.weight]
    else:
        ws = list(range(default_lo, default_hi + 1))
    for w in ws:
        if w < 2 or w > MAX_WEIGHT:
            raise UsageError(f"weight {w} outside supported range 2..{MAX_WEIGHT}")
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


def _require_basis(n: int):
    res = ds_basis(n)
    return res


# -- subcommands -----------------------------------------------------------------


def cmd_basis(args) -> int:
    ws = _parse_weights(args, 3, 3) if (args.weights or args.weight) else [3]
    t0 = time.time()
    payload = {}
    lines = []
    ok = True
    for n in ws:
        res = _require_basis(n)
        payload[str(n)] = res.to_json()
        ok = ok and all(
            v for v in res.certificates.values() if isinstance(v, bool)
        )
        lines.append(f"weight {n}: dimension {res.dimension}")
        for f in res.basis:
            lines.append(f"  {poly_text(f)}")
    report = _base_report(args, "basis", {"weights": ws})
    report["payload"] = payload
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


def cmd_map(args) -> int:
    ws = _parse_weights(args)
    t0 = time.time()
    payload = {}
    lines = []
    ok = True
    for n in ws:
        res = _require_basis(n)
        entry = []
        for f in res.basis:
            d = ds_to_krv(f)
            back = krv_to_ds(d)
            a = trace_constant(d)
            fx_fy = decompose_right(d.F)
            pc = push_constant(fx_fy[1] - fx_fy[0])
            good = (
                d.is_special()
                and a is not None
                and back == f
                and pc is not None
                and pc == n * a
            )
            ok = ok and good
            entry.append(
                {
                    "source": f,
                    "derivation": d,
                    "trace_constant": a,
                    "push_constant": pc,
                    "round_trip": back == f,
                    "ok": good,
                }
            )
            lines.append(
                f"weight {n}: A={coeff_to_str(a)} push={coeff_to_str(pc)} "
                f"roundtrip={'yes' if back == f else 'NO'}"
            )
        payload[str(n)] = entry
    report = _base_report(args, "map", {"weights": ws})
    report["payload"] = payload
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


def cmd_bracket(args) -> int:
    t0 = time.time()
    na, nb = args.w1, args.w2
    for n in (na, nb):
        if n < 3 or n > MAX_WEIGHT:
            raise UsageError(f"weight {n} outside supported range 3..{MAX_WEIGHT}")
    ra, rb = _require_basis(na), _require_basis(nb)
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
    report = _base_report(
        args,
        "bracket",
        {"w1": na, "w2": nb, "index1": args.index1, "index2": args.index2},
    )
    report["payload"] = {
        "bracket": br,
        "weight": na + nb,
        "is_member": member,
        "commutator_compatible": compatible,
    }
    lines = [
        f"bracket weight {na + nb}: member={member} compatible={compatible}",
        f"  {poly_text(br)}",
    ]
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


def cmd_mould(args) -> int:
    t0 = time.time()
    ws = _parse_weights(args, 3, 3)
    checks = {}
    payload = {}
    lines = []
    ok = True
    for n in ws:
        res = _require_basis(n)
        per = []
        for f in res.basis:
            m = moulds.u_family(f)
            entry = {"u_family": m}
            if args.check in ("all", "fixed"):
                entry["mantar_fixed"] = moulds.mantar_fixed_check(f)
                ok = ok and all(entry["mantar_fixed"].values())
            if args.check in ("all", "rules"):
                entry["negation_rule"] = moulds.negation_rule_check(f)
                entry["translation_rule"] = moulds.translation_rule_check(f)
                ok = ok and entry["negation_rule"] and entry["translation_rule"]
            if args.check in ("all", "ecalle"):
                rep = moulds.ecalle_identity_check(f)
                entry["ecalle"] = rep
                ok = ok and rep["verdict"]
                if args.strict:
                    bridge = moulds.ecalle_bridge_check(f)
                    entry["ecalle_bridge"] = bridge
                    ok = ok and all(bridge.values())
            per.append(entry)
            lines.append(f"weight {n}: depths {m.depths()}")
        payload[str(n)] = per
        checks[str(n)] = res.dimension
    report = _base_report(args, "mould", {"weights": ws, "check": args.check})
    report["payload"] = payload
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


def cmd_exp(args) -> int:
    t0 = time.time()
    ws = _parse_weights(args, 3, 3)
    trunc = args.truncate
    _require_truncation(trunc, ws)
    payload = {}
    lines = []
    ok = True
    for n in ws:
        res = _require_basis(n)
        per = []
        for f in res.basis:
            rep = groupexp.group_injection_check(f, trunc)
            phi = groupexp.exp_circle(f, trunc)
            per.append({"series": phi, "checks": rep})
            ok = ok and rep["verdict"]
            lines.append(
                f"weight {n}: trunc {trunc} shuffle-pairs "
                f"{rep['shuffle_grouplike']['pairs']} stuffle-pairs "
                f"{rep['stuffle_grouplike']['pairs']} verdict "
                f"{'pass' if rep['verdict'] else 'FAIL'}"
            )
        payload[str(n)] = per
    report = _base_report(args, "exp", {"weights": ws, "truncate": trunc})
    report["payload"] = payload
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


# -- verification suites ----------------------------------------------------------


def _suite_thm11(args, ws, rng_seed):
    """End-to-end injection: specialness, trace constant, push transport,
    inverse roundtrip, for every basis element at each weight."""
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            d = ds_to_krv(f)
            a = trace_constant(d)
            fx, fy = decompose_right(d.F)
            pc = push_constant(fy - fx)
            back = krv_to_ds(d)
            good = (
                d.is_special()
                and a is not None
                and pc == n * a
                and back == f
            )
            ok = ok and good
            entries.append(
                {
                    "special": d.is_special(),
                    "trace_constant": a,
                    "push_constant": pc,
                    "push_equals_n_times_A": pc == (n * a if a is not None else None),
                    "round_trip": back == f,
                    "ok": good,
                }
            )
        out[str(n)] = {"dimension": res.dimension, "elements": entries}
    return ok, out


def _suite_thm12(args, ws, rng_seed):
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


def _suite_thm21(args, ws, rng_seed):
    """Five equivalent characterizations of specialness agree on seeded
    random Lie elements (and the full Lyndon basis at low weights)."""
    out = {}
    ok = True
    count = args.count
    for n in ws:
        agreements = 0
        specials = 0
        witness = None
        for s in range(count):
            f = random_lie(n, rng_seed + s)
            rep = special_equivalences(f)
            if rep["agree"]:
                agreements += 1
                if rep["existence"]:
                    specials += 1
            elif witness is None:
                witness = {"seed": rng_seed + s, "report": rep}
        sweep = None
        if n <= 4:
            lb = lyndon_basis(n)
            sweep_ok = all(
                special_equivalences(e)["agree"] for e in lb.expansions
            )
            sweep = {"basis_size": len(lb.expansions), "all_agree": sweep_ok}
            ok = ok and sweep_ok
        good = agreements == count
        ok = ok and good
        out[str(n)] = {
            "samples": count,
            "agreements": agreements,
            "special_found": specials,
            "lyndon_sweep": sweep,
            "witness": witness,
            "ok": good,
        }
    return ok, out


def _suite_thm33(args, ws, rng_seed):
    """Antipalindromy of f_x + f_y on every basis element."""
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = [antipal_sum_check(f) for f in res.basis]
        good = all(e["verdict"] and e["consistent"] for e in entries)
        ok = ok and good
        out[str(n)] = {"dimension": res.dimension, "elements": entries, "ok": good}
    return ok, out


def _suite_thm34(args, ws, rng_seed):
    """Signed push-sum law on every basis element."""
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = [signed_push_sums_check(f) for f in res.basis]
        good = all(e["verdict"] for e in entries)
        ok = ok and good
        out[str(n)] = {"dimension": res.dimension, "elements": entries, "ok": good}
    return ok, out


def _suite_lemma35(args, ws, rng_seed):
    """Push-constant transport through the substitution x -> -x-y."""
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            rep = pushconst_transport(negate_y(f))
            entries.append(rep)
            ok = ok and rep["ok"]
        out[str(n)] = {"dimension": res.dimension, "elements": entries}
    return ok, out


def _suite_lemmaA2(args, ws, rng_seed):
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


def _suite_ecalleA8(args, ws, rng_seed):
    """Operator identity teru = push.mantar.teru.mantar on every basis
    element, all depths; strict mode adds the divided-difference bridge."""
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            rep = moulds.ecalle_identity_check(f)
            entry = {"identity": rep}
            good = rep["verdict"]
            if args.strict:
                bridge = moulds.ecalle_bridge_check(f)
                entry["bridge"] = bridge
                good = good and all(bridge.values())
            entries.append(entry)
            ok = ok and good
        out[str(n)] = {
            "dimension": res.dimension,
            "vacuous": res.dimension == 0,
            "elements": entries,
        }
    return ok, out


def _suite_propA3(args, ws, rng_seed):
    """Divided-difference certificate for antipalindromy of f_x + f_y:
    formula agreement on random Lie elements, truth on basis elements."""
    out = {}
    ok = True
    count = args.count
    for n in ws:
        agree = 0
        witness = None
        for s in range(count):
            f = random_lie(n, rng_seed + s)
            rep = moulds.antipal_bridge_check(f)
            if rep["formula_matches_direct_family"] and rep["agrees_with_direct_predicate"]:
                agree += 1
            elif witness is None:
                witness = {"seed": rng_seed + s, "report": rep}
        good = agree == count
        res = _require_basis(n)
        basis_true = all(
            moulds.antipal_bridge_check(f)["verdict"] for f in res.basis
        )
        ok = ok and good and basis_true
        out[str(n)] = {
            "samples": count,
            "formula_agreements": agree,
            "basis_verdicts_true": basis_true,
            "witness": witness,
        }
    return ok, out


def _suite_group49(args, ws, rng_seed):
    """Group-likeness of exp for the shuffle pairing on basis elements."""
    _require_truncation(args.truncate, ws)
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            phi = groupexp.exp_circle(f, args.truncate)
            rep = groupexp.grouplike_shuffle_check(phi)
            entries.append(rep)
            ok = ok and rep["verdict"]
        out[str(n)] = {"dimension": res.dimension, "elements": entries}
    return ok, out


def _suite_group410(args, ws, rng_seed):
    """Group-likeness of the corrected series for the stuffle pairing."""
    _require_truncation(args.truncate, ws)
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            phi = groupexp.exp_circle(f, args.truncate)
            rep = groupexp.grouplike_stuffle_check(phi)
            entries.append(rep)
            ok = ok and rep["verdict"]
        out[str(n)] = {"dimension": res.dimension, "elements": entries}
    return ok, out


def _suite_thm42(args, ws, rng_seed):
    """Composite group-level certificate: group-like exponential, Lie
    logarithm roundtrip, automorphism fixing x + y."""
    _require_truncation(args.truncate, ws)
    out = {}
    ok = True
    for n in ws:
        res = _require_basis(n)
        entries = []
        for f in res.basis:
            rep = groupexp.group_injection_check(f, args.truncate)
            entries.append(rep)
            ok = ok and rep["verdict"]
        out[str(n)] = {"dimension": res.dimension, "elements": entries}
    return ok, out


SUITES = {
    "thm11": (_suite_thm11, "injection into the Kashiwara-Vergne algebra, end to end"),
    "thm12": (_suite_thm12, "two models of the Kashiwara-Vergne space coincide"),
    "thm21": (_suite_thm21, "five equivalent characterizations of specialness"),
    "thm33": (_suite_thm33, "antipalindromy of f_x + f_y on basis elements"),
    "thm34": (_suite_thm34, "signed push-sum law on basis elements"),
    "lemma35": (_suite_lemma35, "push-constant transport under x -> -x-y"),
    "lemmaA2": (_suite_lemmaA2, "mantar fixes u-families of Lie elements"),
    "ecalleA8": (_suite_ecalleA8, "push/teru operator identity, all depths"),
    "propA3": (_suite_propA3, "divided-difference antipalindromy certificate"),
    "group49": (_suite_group49, "group-like shuffle pairing of exponentials"),
    "group410": (_suite_group410, "group-like stuffle pairing of corrected series"),
    "thm42": (_suite_thm42, "group-level injection certificate"),
}

_SUITE_DEFAULT_RANGE = {
    "thm11": (3, 8),
    "thm12": (3, 7),
    "thm21": (3, 6),
    "thm33": (3, 8),
    "thm34": (3, 8),
    "lemma35": (3, 8),
    "lemmaA2": (3, 6),
    "ecalleA8": (3, 8),
    "propA3": (3, 6),
    "group49": (3, 5),
    "group410": (3, 5),
    "thm42": (3, 5),
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    fn, _ = SUITES[args.suite]
    lo, hi = _SUITE_DEFAULT_RANGE[args.suite]
    ws = _parse_weights(args, lo, hi)
    t0 = time.time()
    ok, payload = fn(args, ws, args.seed)
    report = _base_report(
        args,
        "verify",
        {
            "suite": args.suite,
            "weights": ws,
            "count": args.count,
            "truncate": args.truncate,
            "strict": args.strict,
        },
    )
    report["payload"] = payload
    lines = [f"suite {args.suite}: weights {ws}"]
    for k in sorted(payload, key=lambda s: int(s) if s.isdigit() else 0):
        v = payload[k]
        lines.append(f"  weight {k}: {json.dumps(_jsonable(v), sort_keys=True)[:200]}")
    return _finish(report, args, ok, {"total": time.time() - t0}, lines)


# -- argument parsing --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", type=int, help="single weight")
    p.add_argument("--weights", help="range a..b or comma list")
    p.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    p.add_argument("--count", type=int, default=100, help="random samples per weight")
    p.add_argument(
        "--truncate",
        type=int,
        default=int(os.environ.get("DSKRV_TRUNCATE", groupexp.DEFAULT_TRUNCATION)),
        help="series truncation order, at least every weight for exp and the "
        "group suites (env DSKRV_TRUNCATE)",
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


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.count < 0:
            raise UsageError(f"--count must be at least 0, got {args.count}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotLieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
