"""Mould translation of the depth decomposition.

A polynomial f in x, y decomposes by depth (number of y's).  The
depth-r part, written through exponent tuples
f^r = sum a_e x^(e_0) y ... y x^(e_r), maps to a commutative polynomial
in r+1 variables (the z-family) or, after substituting prefix sums with
a leading zero, in r variables (the u-family):

    z-family:  vimo^r(z_0,...,z_r) = sum a_e z_0^(e_0) ... z_r^(e_r)
    u-family:  ma^r(u_1,...,u_r)   = vimo^r(0, u_1, u_1+u_2, ...)

On u-families this module implements the four classical operators
swap, mantar, push and teru (the last with an exact polynomial
division), the fixed-point property of mantar on Lie input via the
expansion in products of ad(x)^c(y), and the identities connecting the
u-family operator calculus back to reversal symmetries of x,y-words:
the negation and translation rules of the z-family, the Ecalle
push/teru identity, and the bridge expressing antipalindromy of
f_x + f_y through divided differences of the z-family.

Every change of variables here is one CPoly.subst, given one sparse
linear form {new variable: coefficient} per old variable, except in
antipal_bridge_check, whose renames and drops of variables are read
straight off the exponent tuples.

Every identity check here is linear in f and reports only verdicts, so
each one runs on the integer numerators P of f = P u (poly.integral):
the u-family of P is that of f over u, and every operator above is
linear.  _numerator_family builds the u-family of P once for the mould
command, which passes it to its checks as m and reports it times u
through poly._divided, the one way back from numerators.  CPoly.subst
computes on the coefficients it is given, so ints in give ints out.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import add, mul

from . import words
from .lie import NotLieError, bracket, is_lie
from .poly import (
    Coeff,
    Poly,
    Terms,
    X,
    Y,
    _divided,
    accumulate,
    coeff_to_str,
    decompose_right,
    integral,
    is_antipalindromic,
)
from .dshuffle import compositions, is_ds


class InexactDivision(ArithmeticError):
    """Division of a mould component left a remainder; carries it."""

    def __init__(self, message: str, remainder: "CPoly"):
        super().__init__(message)
        self.remainder = remainder


class CPoly(Terms):
    """Sparse commutative polynomial with a fixed number of variables.

    Terms map exponent tuples to rational coefficients; the term order
    used for display and serialization is graded lexicographic.
    """

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms: dict[tuple[int, ...], Coeff] | None = None):
        for e in terms or ():
            if len(e) != arity:
                raise ValueError(f"exponent tuple {e} does not have arity {arity}")
        object.__setattr__(self, "arity", arity)
        super().__init__(terms)

    @classmethod
    def _of(cls, terms: dict, arity: int) -> "CPoly":
        """Adopt terms (see Terms._of) as a polynomial in arity variables."""
        new = super()._of(terms)
        object.__setattr__(new, "arity", arity)
        return new

    def _like(self, terms: dict) -> "CPoly":
        return self._of(terms, self.arity)

    def __reduce__(self):
        return CPoly, (self.arity, self.terms)

    @classmethod
    def zero(cls, arity: int) -> "CPoly":
        return cls._of({}, arity)

    @classmethod
    def monomial(cls, exps: tuple[int, ...], c: Coeff = 1) -> "CPoly":
        return cls(len(exps), {exps: c})

    def items(self):
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            yield e, self.terms[e]

    def __add__(self, other: "CPoly") -> "CPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return super().__add__(other)

    def __sub__(self, other: "CPoly") -> "CPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return super().__sub__(other)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.arity == other.arity

    def degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def subst(self, images: list[dict[int, Coeff]], new_arity: int) -> "CPoly":
        """Substitute variable i by the sparse linear form images[i].

        A form maps new variables (indices below new_arity) to nonzero
        coefficients; the empty form {} sends the variable to 0.

        One pass over the terms maps the exponents of every old variable
        whose form has at most one entry: the term is dropped when the
        form is {}, and otherwise the variable is renamed to its new
        variable and, for e > 0, the term multiplied by a^e unless a is
        the int 1.  Every other old variable (a form with several entries,
        or one entry on a new variable that an earlier old variable has
        taken) then takes one pass over the whole dict, which expands
        (sum_j a_j v_j)^e by the multinomial theorem, once per exponent.
        Each output coefficient is the plain sum of its shares: ints in
        give ints out.
        """
        if len(images) != self.arity:
            raise ValueError(f"expected {self.arity} linear forms, got {len(images)}")
        # pick[j]: the old variable whose exponent key slot j takes, or the
        # arity, which indexes the 0 padded onto every exponent tuple
        pad = self.arity
        pick = [pad] * new_arity
        dropped, powered, expanded = [], [], []
        for i, form in enumerate(images):
            entries = []
            for j, a in form.items():
                if not 0 <= j < new_arity:
                    raise ValueError(f"linear form {form} leaves the {new_arity} new variables")
                if a:
                    entries.append((j, a))
            if not entries:
                dropped.append(i)
            elif len(entries) == 1 and pick[entries[0][0]] == pad:
                j, a = entries[0]
                pick[j] = i
                if a != 1 or type(a) is not int:
                    powered.append((i, a))
            else:
                expanded.append((i, entries))
        # the slots past the new variables hold the exponents that wait for
        # an expansion pass, the first such variable's last, since each pass
        # expands the last slot; in order, the short forms of the prefix sums
        # z_i -> u_1 + ... + u_i go first, which keeps the dict small
        pick += [i for i, _ in reversed(expanded)]
        terms: dict[tuple[int, ...], Coeff] = {}
        for exps, p in self.terms.items():
            if dropped and any(map(exps.__getitem__, dropped)):
                continue
            for i, a in powered:
                if exps[i]:  # a variable that does not occur adds no factor
                    p *= a ** exps[i]
            key = tuple(map((*exps, 0).__getitem__, pick))
            terms[key] = terms.get(key, 0) + p
        for m, (_, entries) in enumerate(expanded, 1):
            powers: dict[int, list] = {}
            grown: dict[tuple[int, ...], Coeff] = {}
            for key, p in terms.items():
                if not p:
                    continue
                e = key[-1]
                if e not in powers:
                    powers[e] = _power_of_form(entries, e, len(pick) - m)
                base = key[:-1]
                for delta, c in powers[e]:
                    k = tuple(map(add, base, delta))
                    grown[k] = grown.get(k, 0) + c * p
            terms = grown
        return CPoly._of({k: p for k, p in terms.items() if p}, new_arity)

    def div_var(self, k: int) -> "CPoly":
        """Exact division by variable k; raises InexactDivision on remainder."""
        rem = {e: c for e, c in self.terms.items() if e[k] == 0}
        if rem:
            raise InexactDivision(
                f"component is not divisible by variable {k}", CPoly(self.arity, rem)
            )
        return self._like(
            {e[:k] + (e[k] - 1,) + e[k + 1 :]: c for e, c in self.terms.items()}
        )

    def div_diff(self, i: int, j: int) -> "CPoly":
        """Exact division by (variable i - variable j)."""

        def shear(sign: int) -> list[dict[int, int]]:  # v_i -> v_i + sign*v_j
            images = [{k: 1} for k in range(self.arity)]
            images[i] = {i: 1, j: sign}
            return images

        quotient = self.subst(shear(1), self.arity).div_var(i)
        return quotient.subst(shear(-1), self.arity)

    def __repr__(self) -> str:
        return f"<CPoly({self.arity}) {dict(self.items())}>"


def _power_of_form(form: list[tuple[int, Coeff]], e: int, width: int) -> list[tuple]:
    """(sum of a v_j over (j, a) in form)^e by the multinomial theorem.

    Returns (exponent vector of length width, coefficient) for each term.
    """
    parts = [([0] * width, 1, e)]  # exponents, coefficient, degree left
    for n, (j, a) in enumerate(form, 1):
        grown = []
        for exps, c, left in parts:
            for k in range(left + 1) if n < len(form) else (left,):
                picked = exps.copy()
                picked[j] = k
                grown.append((picked, c * comb(left, k) * a**k, left - k))
        parts = grown
    return [(tuple(exps), c) for exps, c, _ in parts]


class Mould:
    """Graded family of commutative polynomials indexed by depth.

    kind 'u' components have r variables (depth-0 component fixed to
    zero); kind 'z' components have r+1 variables.  Missing components
    are zero.
    """

    __slots__ = ("kind", "degree", "components")

    def __init__(self, kind: str, components: dict[int, CPoly], degree: int | None = None):
        if kind not in ("u", "z"):
            raise ValueError("mould kind must be 'u' or 'z'")
        comps = {}
        for r, p in components.items():
            expected = r if kind == "u" else r + 1
            if kind == "u" and r < 1:
                raise ValueError("u-family components start at depth 1")
            if p.arity != expected:
                raise ValueError(
                    f"depth-{r} component must have {expected} variables, has {p.arity}"
                )
            if degree is not None and p and (
                not p.is_homogeneous() or p.degree() != degree - r
            ):
                raise ValueError(
                    f"depth-{r} component of a degree-{degree} mould must be "
                    f"homogeneous of degree {degree - r}"
                )
            if p:
                comps[r] = p
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Mould is immutable")

    def __reduce__(self):
        return Mould, (self.kind, self.components, self.degree)

    def component(self, r: int) -> CPoly:
        arity = r if self.kind == "u" else r + 1
        return self.components.get(r, CPoly.zero(arity))

    def max_depth(self) -> int:
        return max(self.components, default=0)

    def depths(self) -> list[int]:
        return sorted(self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mould) or self.kind != other.kind:
            return False
        return self.components == other.components

    def __repr__(self) -> str:
        return f"<Mould kind={self.kind} depths={self.depths()}>"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "components": {
                str(r): [
                    {"exps": list(e), "coeff": coeff_to_str(c)}
                    for e, c in self.component(r).items()
                ]
                for r in self.depths()
            },
        }


# -- construction from x,y-polynomials ----------------------------------------


def z_family(f: Poly) -> Mould:
    """The z-family of f: depth-r words become monomials in z_0..z_r."""
    comps: dict[int, dict[tuple[int, ...], Coeff]] = {}
    deg = f.degree() if f.is_homogeneous() else None
    for w, c in f.terms.items():
        if w == words.EMPTY:
            raise ValueError("the empty word has no mould translation")
        # exponents_of is injective and c is nonzero: each key comes once
        e = words.exponents_of(w)
        comps.setdefault(len(e) - 1, {})[e] = c
    return Mould("z", {r: CPoly._of(t, r + 1) for r, t in comps.items()}, deg)


def u_family(f: Poly) -> Mould:
    """The u-family of f: prefix-sum substitution of the z-family.

    The depth-0 part of f does not appear (the u-family starts at
    depth 1 with the zero constant at depth 0).
    """
    zf = z_family(f)
    comps = {
        # z_i -> u_1 + ... + u_i
        r: zf.component(r).subst([dict.fromkeys(range(i), 1) for i in range(r + 1)], r)
        for r in zf.depths()
        if r
    }
    return Mould("u", comps, zf.degree)


def _numerator_family(f: Poly) -> tuple[Poly, Mould, Mould]:
    """The integer numerators P of f = P u, the u-family of P, and u_family(f),
    which is the u-family of P times u (poly._divided)."""
    p, u = integral(f)
    m = u_family(p)
    return p, m, Mould("u", {r: _divided(c, u) for r, c in m.components.items()}, m.degree)


# -- the four operators on u-families ------------------------------------------


def _require_u(m: Mould, op: str) -> None:
    if m.kind != "u":
        raise ValueError(f"{op} operates on u-family moulds")


def _per_depth(m: Mould, op: str, component) -> Mould:
    """The u-family with depth-r component component(m^r, r) for each r."""
    _require_u(m, op)
    return Mould("u", {r: component(m.component(r), r) for r in m.depths()}, m.degree)


def swap(m: Mould) -> Mould:
    """swap: arguments v_r, v_(r-1)-v_r, ..., v_1-v_2."""
    return _per_depth(
        m,
        "swap",
        # u_1 -> v_r, u_k -> v_(r-k+1) - v_(r-k+2)
        lambda p, r: p.subst(
            [{r - 1: 1}] + [{r - k: 1, r - k + 1: -1} for k in range(2, r + 1)], r
        ),
    )


def mantar(m: Mould) -> Mould:
    """mantar: (-1)^(r-1) times the argument reversal."""
    return _per_depth(
        m,
        "mantar",
        lambda p, r: p.subst([{r - 1 - k: 1} for k in range(r)], r).scale(
            1 if (r - 1) % 2 == 0 else -1
        ),
    )


def push_mould(m: Mould) -> Mould:
    """push: arguments -u_1-...-u_r, u_1, ..., u_(r-1)."""
    return _per_depth(
        m,
        "push",
        lambda p, r: p.subst([dict.fromkeys(range(r), -1)] + [{k: 1} for k in range(r - 1)], r),
    )


def teru(m: Mould) -> Mould:
    """teru: adds the divided difference of the next-lower component.

    teru(m)^r = m^r + (1/u_r)(m^(r-1)(u_1,...,u_(r-2),u_(r-1)+u_r)
                             - m^(r-1)(u_1,...,u_(r-1))).
    The division must be exact; a remainder raises InexactDivision.
    """
    _require_u(m, "teru")
    comps = {}
    for r in range(1, m.max_depth() + 2):
        base = m.component(r)
        if r == 1:
            if base:
                comps[r] = base
            continue
        prev = m.component(r - 1)
        if prev:
            kept = [{k: 1} for k in range(r - 1)]
            plus = prev.subst(kept[:-1] + [{r - 2: 1, r - 1: 1}], r)
            base = base + (plus - prev.subst(kept, r)).div_var(r - 1)
        if base:
            comps[r] = base
    return Mould("u", comps, m.degree)


# -- expansion in ad(x)-products (the meaning of u-coefficients) ----------------

_ad_cache: dict[int, Poly] = {}


def ad_power(c: int) -> Poly:
    """ad(x)^c(y) as a polynomial."""
    if c not in _ad_cache:
        _ad_cache[c] = bracket(X, ad_power(c - 1)) if c else Y
    return _ad_cache[c]


def _ad_product(c: tuple[int, ...]) -> Poly:
    """ad(x)^(c_1)(y) ... ad(x)^(c_r)(y)."""
    return reduce(mul, map(ad_power, c))


def _sum_of_products(pairs) -> Poly:
    """sum of b * product over the (b, product) pairs."""
    terms: dict[int, Coeff] = {}
    for b, product in pairs:
        accumulate(terms, product.terms.items(), b)
    return Poly._of(terms)


def ad_expansion(f: Poly) -> dict[tuple[int, ...], tuple[Coeff, Poly]]:
    """Expand f in products ad(x)^(c_1)(y) ... ad(x)^(c_r)(y): {c: (b_c, product)}.

    Works depth by depth; the coefficient of the composition c is found
    by peeling words x^(c_1) y ... x^(c_r) y in decreasing
    lexicographic order of c (prefix-sum dominance makes the system
    unitriangular).  Raises when f is not in the span, which for Lie
    input never happens.

    The z-family of a single product factorizes, because concatenating
    blocks only merges exponents at the junction variable:

        z-family of ad(x)^(c_1)(y)...ad(x)^(c_r)(y)
            = (z_0-z_1)^(c_1) (z_1-z_2)^(c_2) ... (z_(r-1)-z_r)^(c_r),

    so after the prefix-sum substitution each factor becomes (-u_k)^(c_k)
    and the u-family of f is sum_c (-1)^(c_1+...+c_r) b_c u^c.
    """
    if not f:
        return {}
    if not f.is_homogeneous():
        raise ValueError("ad_expansion requires homogeneous input")
    # every c with x^(c_1) y ... x^(c_r) y of degree n, in decreasing
    # lexicographic order: the compositions of n, each part minus 1
    desc = [tuple(p - 1 for p in c) for c in reversed(compositions(f.degree()))]
    out: dict[tuple[int, ...], tuple[Coeff, Poly]] = {}
    for r in f.depths():
        if r == 0:
            raise ValueError("depth-0 parts are not spanned by ad(x)-products")
        residual = dict(f.depth_part(r).terms)
        for c in desc:
            if len(c) != r:
                continue
            w = words.code_from_exponents(c + (0,))  # x^(c_1) y ... x^(c_r) y
            b = residual.get(w, 0)
            if not b:
                continue
            product = _ad_product(c)
            out[c] = (b, product)
            accumulate(residual, product.terms.items(), -b)
        if residual:
            raise NotLieError(
                "polynomial is not a combination of ad(x)-products", Poly(residual)
            )
    return out


# -- identity checks ------------------------------------------------------------


def mantar_fixed_check(f: Poly, m: Mould | None = None) -> dict:
    """For Lie f: mantar fixes the u-family, whose coefficients are the
    ad(x)-product expansion coefficients of f.

    m, when given, is the u-family of the integer numerators of f.
    """
    f = integral(f)[0]  # scale-invariant: on the numerators
    if not is_lie(f):
        raise NotLieError("mantar_fixed_check requires a Lie element", f)
    if m is None:
        m = u_family(f)
    expansion = ad_expansion(f)
    coeffs = {c: b for c, (b, _) in expansion.items()}
    rebuilt = Mould(
        "u",
        {
            r: CPoly(
                r,
                {
                    c: (b if sum(c) % 2 == 0 else -b)
                    for c, b in coeffs.items()
                    if len(c) == r
                },
            )
            for r in {len(c) for c in coeffs}
        },
        f.degree() if f.is_homogeneous() else None,
    )
    return {
        "mantar_fixes": mantar(m) == m,
        "coefficients_match": rebuilt == m,
        "round_trip": _sum_of_products(expansion.values()) == f,
    }


def negation_rule_check(f: Poly) -> bool:
    """z-family parity: component r of a degree-n polynomial changes by
    (-1)^(n-r) under negating all variables."""
    if not f or not f.is_homogeneous():
        raise ValueError("negation_rule_check requires nonzero homogeneous input")
    f = integral(f)[0]  # scale-invariant: on the numerators
    n = f.degree()
    zf = z_family(f)
    for r in zf.depths():
        p = zf.component(r)
        neg = p.subst([{k: -1} for k in range(r + 1)], r + 1)
        sign = 1 if (n - r) % 2 == 0 else -1
        if neg != p.scale(sign):
            return False
    return True


def translation_rule_check(f: Poly) -> bool:
    """z-family translation invariance of Lie elements: a common shift
    of all arguments does not change any positive-depth component."""
    f = integral(f)[0]  # scale-invariant: on the numerators
    zf = z_family(f)
    for r in zf.depths():
        if r == 0:
            continue
        p = zf.component(r)
        # z_0 -> 0, z_k -> z_k - z_0
        if p.subst([{}] + [{0: -1, k: 1} for k in range(1, r + 1)], r + 1) != p:
            return False
    return True


def ecalle_identity_check(f: Poly, m: Mould | None = None) -> dict:
    """The push/teru identity teru(ma) = push(mantar(teru(mantar(ma)))).

    Holds for every double shuffle element in all depths 1..n, and f
    must be one (ValueError otherwise); the report records the first
    depth at which the identity fails, if any.  m, when given, is the
    u-family of the integer numerators of f.
    """
    f = integral(f)[0]  # scale-invariant: on the numerators
    if not is_ds(f):
        raise ValueError("ecalle_identity_check requires a double shuffle element")
    if m is None:
        m = u_family(f)
    lhs = teru(m)
    rhs = push_mould(mantar(teru(mantar(m))))
    depths = sorted(set(lhs.depths()) | set(rhs.depths()))
    per_depth = {r: lhs.component(r) == rhs.component(r) for r in depths}
    witness = next((r for r, ok in per_depth.items() if not ok), None)
    return {"verdict": all(per_depth.values()), "per_depth": per_depth, "witness_depth": witness}


def ecalle_bridge_check(f: Poly, m: Mould | None = None) -> dict:
    """Cross-checks the operator calculus against the divided-difference
    forms of swap(teru(ma)) and swap(push(mantar(teru(ma)))) computed
    directly from the z-family (Lie input required for the latter).
    m, when given, is the u-family of the integer numerators of f.

    For depths 2..max:
      lhs form: vimo^r(0,v_r..v_1)
                + 1/(v_1-v_2) (vimo^(r-1)(0,v_r..v_3,v_1)
                               - vimo^(r-1)(0,v_r..v_3,v_2))
      rhs form: (-1)^(n-1) [vimo^r(v_2..v_r,0,v_1)
                + 1/v_1 (vimo^(r-1)(v_2..v_r,v_1) - vimo^(r-1)(v_2..v_r,0))]
    """
    f = integral(f)[0]  # scale-invariant: on the numerators
    if not f or not f.is_homogeneous():
        raise ValueError("ecalle_bridge_check requires nonzero homogeneous input")
    if not is_lie(f):
        raise NotLieError("ecalle_bridge_check requires a Lie element", f)
    n = f.degree()
    zf = z_family(f)
    if m is None:
        m = u_family(f)
    lhs_op = swap(teru(m))
    rhs_op = swap(push_mould(mantar(teru(m))))
    sign = 1 if (n - 1) % 2 == 0 else -1
    report = {"lhs_match": True, "rhs_match": True, "identity": True}
    for r in range(2, max(lhs_op.max_depth(), rhs_op.max_depth()) + 1):
        vr = zf.component(r)
        vprev = zf.component(r - 1)

        # vimo^r(0, v_r, ..., v_1)
        a = vr.subst([{}] + [{r - k: 1} for k in range(1, r + 1)], r)
        # vimo^(r-1)(0, v_r, ..., v_3, v_1) and (..., v_2)
        hi = [{}] + [{r - k: 1} for k in range(1, r - 1)]
        b1 = vprev.subst(hi + [{0: 1}], r)
        b2 = vprev.subst(hi + [{1: 1}], r)
        lhs_form = a + (b1 - b2).div_diff(0, 1)
        if lhs_form != lhs_op.component(r):
            report["lhs_match"] = False

        # vimo^r(v_2, ..., v_r, 0, v_1)
        shifted = [{k + 1: 1} for k in range(r - 1)]
        c = vr.subst(shifted + [{}, {0: 1}], r)
        # vimo^(r-1)(v_2, ..., v_r, v_1) and (..., 0)
        d1 = vprev.subst(shifted + [{0: 1}], r)
        d2 = vprev.subst(shifted + [{}], r)
        rhs_form = (c + (d1 - d2).div_var(0)).scale(sign)
        if rhs_form != rhs_op.component(r):
            report["rhs_match"] = False

        if lhs_form != rhs_form:
            report["identity"] = False
    return report


def antipal_bridge_check(f: Poly) -> dict:
    """Per-depth divided-difference test for antipalindromy of f_x + f_y.

    For each depth r the two forms
      lhs: vimo_(f^(r+1))(z_0..z_r,0)
           + 1/z_r (vimo_(f^r) - vimo_(f^r)(z_0..z_(r-1),0))
      rhs: (-1)^(n-1) [vimo_(f^(r+1))(z_r..z_0,0)
           + 1/z_0 (vimo_(f^r)(z_r..z_1,z_0) - vimo_(f^r)(z_r..z_1,0))]
    are compared; lhs is verified against the actual z-family of
    f_x + f_y, and the conjunction over all depths is verified to agree
    with the direct antipalindromy predicate.

    Every substitution in the forms renames or drops variables, and each
    division is exact by one variable, so both forms are built straight
    from exponent tuples: the term of z^e in vimo_(f^(r+1)) survives
    when e_(r+1) = 0, and the divided difference of vimo_(f^r) keeps the
    terms with e_r > 0, one power of z_r lower.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous() or n < 2:
        raise ValueError("antipal_bridge_check requires homogeneous input of degree >= 2")
    f = integral(f)[0]  # scale-invariant: on the numerators
    fx, fy = decompose_right(f)
    h = fx + fy
    zf = {r: p.terms for r, p in z_family(f).components.items()}
    zh = z_family(h)
    sign = 1 if (n - 1) % 2 == 0 else -1
    per_depth = {}

    # depth 0: the x^(n-1) coefficient must satisfy c = (-1)^(n-1) c
    c0 = h.terms.get(words.x_power(n - 1), 0)
    per_depth[0] = c0 == sign * c0
    formula_matches = True

    for r in range(1, n):
        vnext = zf.get(r + 1, {}).items()
        vr = zf.get(r, {}).items()
        # (z_0, ..., z_r) -> keys e[:-1]; reversed, (z_r, ..., z_0) -> keys e[-2::-1]
        lhs = accumulate(
            {e[:-1]: c for e, c in vnext if not e[-1]},
            ((e[:-1] + (e[-1] - 1,), c) for e, c in vr if e[-1]),
        )
        rhs = accumulate(
            {e[-2::-1]: sign * c for e, c in vnext if not e[-1]},
            (((e[-1] - 1,) + e[-2::-1], c) for e, c in vr if e[-1]),
            sign,
        )
        if lhs != zh.component(r).terms:
            formula_matches = False
        per_depth[r] = lhs == rhs

    verdict = all(per_depth.values())
    direct = is_antipalindromic(h) if h else True
    return {
        "verdict": verdict,
        "per_depth": per_depth,
        "formula_matches_direct_family": formula_matches,
        "agrees_with_direct_predicate": verdict == direct,
    }


def antipal_sum_check(f: Poly) -> dict:
    """Check that f_x + f_y is antipalindromic (f = f_x x + f_y y).

    Every double shuffle element has this property; the report carries
    the direct predicate together with the per-depth divided-difference
    certificate of the commutative-variable translation.
    """
    f = integral(f)[0]  # scale-invariant: on the numerators
    fx, fy = decompose_right(f)
    h = fx + fy
    direct = True if not h else is_antipalindromic(h)
    bridge = antipal_bridge_check(f)
    return {
        "verdict": direct,
        "bridge": bridge,
        "consistent": bridge["verdict"] == direct
        and bridge["agrees_with_direct_predicate"],
    }
