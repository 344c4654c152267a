"""Spans around the public functions of `dskrv`, recorded from outside.

Each wrapped call appends one span (name, start, end, parent) to flat
arrays held in memory; `stats()` reduces them to per-name counts and
times when the pass is over.  A function is rebound in every `dskrv`
module that holds it by name (``from .lie import is_lie`` makes a second
binding that a wrapper on `lie.is_lie` alone would miss).  Per-term
dunders such as `Poly.__add__` are deliberately not wrapped: their cost
shows in their callers' self time.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path) of every wrapped function.
TARGETS = (
    ("linalg.row_echelon", "dskrv.linalg", "row_echelon"),
    ("linalg.nullspace", "dskrv.linalg", "nullspace"),
    ("linalg.solve", "dskrv.linalg", "solve"),
    ("lie.is_lie", "dskrv.lie", "is_lie"),
    ("lie.from_coords", "dskrv.lie", "from_coords"),
    ("lie.lyndon_basis", "dskrv.lie", "lyndon_basis"),
    ("dshuffle.is_ds", "dskrv.dshuffle", "is_ds"),
    ("dshuffle.ds_basis", "dskrv.dshuffle", "ds_basis"),
    ("dshuffle.shuffle", "dskrv.dshuffle", "shuffle"),
    ("dshuffle.stuffle", "dskrv.dshuffle", "stuffle"),
    ("dshuffle.d_f", "dskrv.dshuffle", "d_f"),
    ("groupexp.exp_circle", "dskrv.groupexp", "exp_circle"),
    ("groupexp.circle", "dskrv.groupexp", "circle"),
    ("groupexp.log_circle", "dskrv.groupexp", "log_circle"),
    ("groupexp.exp_derivation", "dskrv.groupexp", "exp_derivation"),
    ("groupexp.grouplike_shuffle_check", "dskrv.groupexp", "grouplike_shuffle_check"),
    ("groupexp.grouplike_stuffle_check", "dskrv.groupexp", "grouplike_stuffle_check"),
    ("derivations.special_equivalences", "dskrv.derivations", "special_equivalences"),
    ("derivations.partner_by_elimination", "dskrv.derivations", "partner_by_elimination"),
    ("derivations.ds_to_krv", "dskrv.derivations", "ds_to_krv"),
    ("derivations.krv_to_ds", "dskrv.derivations", "krv_to_ds"),
    ("derivations.kv_dimensions", "dskrv.derivations", "kv_dimensions"),
    ("derivations.TangentialDerivation.apply", "dskrv.derivations", "TangentialDerivation.apply"),
    ("poly.subst_linear", "dskrv.poly", "subst_linear"),
    ("moulds.CPoly.subst", "dskrv.moulds", "CPoly.subst"),
    ("moulds.u_family", "dskrv.moulds", "u_family"),
    ("moulds.ecalle_identity_check", "dskrv.moulds", "ecalle_identity_check"),
    ("moulds.mantar_fixed_check", "dskrv.moulds", "mantar_fixed_check"),
    ("moulds.antipal_bridge_check", "dskrv.moulds", "antipal_bridge_check"),
    ("cli.emit", "dskrv.cli", "_emit"),
)


def _count_row_echelon(counters, args, result) -> None:
    rows, ncols = args[0], args[1]
    counters["linalg.row_echelon.cells"] += len(rows) * ncols
    bits = max((abs(v).bit_length() for row in result[0] for v in row), default=0)
    key = "linalg.row_echelon.max_entry_bits"
    counters[key] = max(counters[key], bits)


def _count_pairs(name):
    def count(counters, args, result) -> None:
        counters[f"{name}.pairs"] += result["pairs"]

    return count


# Work counted at a span's exit, outside its timed interval.
COUNTERS = {
    "linalg.row_echelon": _count_row_echelon,
    "groupexp.grouplike_shuffle_check": _count_pairs("groupexp.grouplike_shuffle_check"),
    "groupexp.grouplike_stuffle_check": _count_pairs("groupexp.grouplike_stuffle_check"),
}


COUNTER_NAMES = (
    "linalg.row_echelon.cells",
    "linalg.row_echelon.max_entry_bits",
    "groupexp.grouplike_shuffle_check.pairs",
    "groupexp.grouplike_stuffle_check.pairs",
)


class Tracer:
    """Records spans around the functions named in TARGETS."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outermost = array("b")  # 1 unless an enclosing span has the same name
        self.counters: dict[str, int] = defaultdict(int)
        for key in COUNTER_NAMES:
            self.counters[key] = 0
        self._stack: list[int] = []
        self._active: list[int] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        count = COUNTERS.get(name)
        stack, active = self._stack, self._active
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        outermost = self.outermost

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(active[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded `dskrv` module."""
        modules = [m for k, m in sys.modules.items() if k == "dskrv" or k.startswith("dskrv.")]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            setattr(owner, attr, traced)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def stats(self) -> dict[str, float]:
        """calls, busy_s (outermost spans) and self_s (minus child spans) per name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            if self.outermost[i]:
                out[f"{name}.busy_s"] += dur
        out.update(self.counters)
        out["trace.spans"] = n
        return out
