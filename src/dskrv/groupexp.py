"""Group-level exponentials over the double shuffle and tangential worlds.

The Lie-algebra structures of the other modules exponentiate to
prounipotent groups.  Working with exact rational coefficients and a
degree truncation N, this module provides:

  - truncated power series (a thin wrapper over polynomials that keeps
    the constant term and drops every term of degree > N);
  - the circled product f (.) g = fg + D_f(g), where D_f is the
    derivation x -> 0, y -> [y, f], and its exponential exp_circle;
  - the inverse log_circle, recovered degree by degree;
  - group-likeness checks: (Phi | sh(u,v)) = (Phi|u)(Phi|v) over all
    word pairs, and the stuffle analog on the corrected series
    Phi_* = exp(sum_{n>=1} ((-1)^(n-1)/n) (Phi|x^(n-1)y) y^n) pi_y(Phi)
    over pairs of words ending in y; (Phi | sh(u,v)) is the (u, v)
    coefficient of the shuffle coproduct of Phi, computed densely on
    word-bit lists (dshuffle.shuffle_buckets), so no product is built,
    and dshuffle.coproduct_sweep checks each bucket row u against
    Phi(u) Phi(v) at once;
  - exponentials of tangential derivations as automorphisms of the
    free Lie algebra, with certificates that special derivations
    exponentiate to automorphisms fixing x + y;
  - a composite check tying the two exponentials together through the
    weight-preserving injection of double shuffle into the
    Kashiwara-Vergne Lie algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import words
from .poly import Coeff, Poly, accumulate, numerators, poly_to_json, truncated_mul
from .lie import NotLieError, bracket, is_lie
from .dshuffle import coproduct_sweep, d_f, is_ds, shuffle_buckets, stuffle_buckets
from .derivations import TangentialDerivation, ds_to_krv

DEFAULT_TRUNCATION = 12


def _truncate(f: Poly, trunc: int) -> Poly:
    return Poly._of({w: c for w, c in f.terms.items() if words.degree(w) <= trunc})


class TruncSeries:
    """Power series with rational coefficients, exact below degree trunc+1."""

    __slots__ = ("poly", "trunc")

    def __init__(self, poly: Poly, trunc: int):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        object.__setattr__(self, "poly", _truncate(poly, trunc))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        return TruncSeries, (self.poly, self.trunc)

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries":
        return cls(Poly.one(), trunc)

    @classmethod
    def zero(cls, trunc: int) -> "TruncSeries":
        return cls(Poly.zero(), trunc)

    @property
    def constant_term(self) -> Coeff:
        return self.poly.terms.get(words.EMPTY, 0)

    def coeff(self, w) -> Coeff:
        code = words.as_code(w)
        if code == words.EMPTY:
            return self.constant_term
        if words.degree(code) > self.trunc:
            raise ValueError("coefficient beyond the truncation order")
        return self.poly.terms.get(code, 0)

    def homogeneous_part(self, d: int) -> Poly:
        return self.poly.homogeneous_part(d)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        return TruncSeries(self.poly + other.poly, t)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        return TruncSeries(self.poly - other.poly, t)

    def scale(self, c: Coeff) -> "TruncSeries":
        return TruncSeries(self.poly.scale(c), self.trunc)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        return TruncSeries(truncated_mul(self.poly, other.poly, t), t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.trunc == other.trunc
            and self.poly == other.poly
        )

    def __repr__(self) -> str:
        return f"<TruncSeries trunc={self.trunc} terms={len(self.poly.terms)}>"

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "series": poly_to_json(self.poly)}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries":
        from .poly import poly_from_json

        return cls(poly_from_json(obj["series"]), obj["trunc"])


# -- the circled product and its exponential -----------------------------------


def circle(f: Poly, g: Poly, trunc: int | None = None) -> Poly:
    """f (.) g = fg + D_f(g) with D_f: x -> 0, y -> [y, f].

    The left factor must be a Lie element (the formula computes the
    product in the enveloping algebra of the derivation algebra, where
    it is only valid with a primitive left factor).  With trunc given,
    terms of degree > trunc are never built.
    """
    if not is_lie(f):
        raise NotLieError("left factor of the circled product must be Lie", f)
    if trunc is None:
        return f * g + d_f(f, g)
    return truncated_mul(f, g, trunc) + d_f(f, g, trunc)


def exp_circle(f: Poly, trunc: int = DEFAULT_TRUNCATION) -> TruncSeries:
    """exp of f for the circled product: sum of f^(.k) / k!.

    The powers are computed on integer numerators: with d the lcm of
    the denominators of f, the k-th circled power of d f is
    P_k = d^k f^(.k), and Phi = sum P_k / (d^k k!) is put over one
    denominator at the end.
    """
    if f.terms.get(words.EMPTY, 0):
        raise ValueError("exp_circle requires vanishing constant term")
    num, den = numerators(_truncate(f, trunc))
    scaled = Poly._of(num)
    min_deg = min((words.degree(w) for w in num), default=trunc + 1)
    powers = [Poly.one()]
    # every term of the k-th power has degree >= k * min_deg
    for _ in range(trunc // min_deg):
        power = circle(scaled, powers[-1], trunc)
        if not power:
            break
        powers.append(power)
    top = len(powers) - 1
    total: dict[int, int] = {}
    weight = 1  # d^(top-k) top!/k!, the factor of P_k over the common denominator
    for k in range(top, -1, -1):
        accumulate(total, powers[k].terms.items(), weight)
        weight *= den * k
    common = den**top * factorial(top)
    return TruncSeries(Poly._of({w: Fraction(c, common) for w, c in total.items()}), trunc)


def log_circle(phi: TruncSeries, require_lie_parts: bool = False) -> Poly:
    """Inverse of exp_circle, computed degree by degree.

    At each degree d the difference phi - exp_circle(f) starts in
    degree d, and its degree-d part is the missing increment of f.
    With require_lie_parts every increment is certified to be a Lie
    element (group elements of the double shuffle or tangential groups
    must have Lie logarithms).
    """
    if phi.constant_term != 1:
        raise ValueError("log_circle requires constant term 1")
    f = Poly.zero()
    for d in range(1, phi.trunc + 1):
        # exp_circle never lowers degrees, so its degree-d part is the
        # same at every truncation order >= d
        delta = phi.homogeneous_part(d) - exp_circle(f, d).homogeneous_part(d)
        if not delta:
            continue
        if require_lie_parts and not is_lie(delta):
            raise NotLieError(f"degree-{d} increment of the logarithm is not Lie", delta)
        f = f + delta
    return f


# -- group-likeness -------------------------------------------------------------


def grouplike_shuffle_check(phi: TruncSeries) -> dict:
    """Check (Phi | sh(u, v)) = (Phi|u)(Phi|v) for all word pairs.

    Pairs are swept over 1 <= deg u <= deg v with deg u + deg v up to
    the truncation order.  Returns the verdict, a witness pair on
    failure, and the number of pairs checked.  Every pairing is read off
    the shuffle coproduct of Phi's numerators; no product is built.
    """
    num, den = numerators(phi.poly)
    return coproduct_sweep(shuffle_buckets(num), num, den, phi.trunc)


def star_series(phi: TruncSeries) -> TruncSeries:
    """Phi_* = exp(sum ((-1)^(n-1)/n)(Phi|x^(n-1)y) y^n) pi_y(Phi)."""
    n = phi.trunc
    corr = Poly(
        {
            words.y_power(d): Fraction((-1) ** (d - 1), d) * phi.coeff((1 << d) | 1)  # x^(d-1) y
            for d in range(1, n + 1)
        }
    )
    # corr is a series in y alone, so its exponential is the scalar
    # exponential computed term by term on commuting powers of y.
    expo = {words.EMPTY: 1}
    power = Poly.one()
    kfact = 1
    for k in range(1, n + 1):
        power = truncated_mul(power, corr, n)
        if not power:
            break
        kfact *= k
        accumulate(expo, power.terms.items(), Fraction(1, kfact))
    # the projection onto words ending in y keeps the constant term of
    # a series (unlike the polynomial operator pi_y, which has no use
    # for empty words)
    proj = Poly._of(
        {
            w: c
            for w, c in phi.poly.terms.items()
            if w == words.EMPTY or words.ends_in_y(w)
        }
    )
    return TruncSeries(Poly._of(expo), n) * TruncSeries(proj, n)


def grouplike_stuffle_check(phi: TruncSeries) -> dict:
    """Check (Phi_* | st(u, v)) = Phi_*(u) Phi_*(v) for y-ending pairs.

    The pairs and the report are as in grouplike_shuffle_check, over
    words ending in y; the pairings come from the stuffle coproduct.
    """
    num, den = numerators(star_series(phi).poly)
    return coproduct_sweep(stuffle_buckets(num), num, den, phi.trunc, y_ending=True)


# -- exponentials of tangential derivations --------------------------------------


def exp_derivation(d: TangentialDerivation, f: Poly, trunc: int = DEFAULT_TRUNCATION) -> Poly:
    """Apply exp(D) = sum D^k / k! to f, truncated beyond degree trunc."""
    term = _truncate(f, trunc)
    total = dict(term.terms)
    kfact = 1
    k = 0
    while term:
        k += 1
        kfact *= k
        term = d.apply(term, trunc)
        accumulate(total, term.terms.items(), Fraction(1, kfact))
    return Poly._of(total)


def automorphism_check(d: TangentialDerivation, trunc: int = DEFAULT_TRUNCATION) -> dict:
    """Certificates for A = exp(D) with D a tangential derivation.

    Checks that A(x) + A(y) = x + y through the truncation order when D
    is special, and that A respects brackets on a sample:
    A([x, y]) = [A(x), A(y)] up to the truncation order.
    """
    ax = exp_derivation(d, Poly.word("x"), trunc)
    ay = exp_derivation(d, Poly.word("y"), trunc)
    fixes = (ax + ay) == Poly.word("x") + Poly.word("y")
    lhs = exp_derivation(d, bracket(Poly.word("x"), Poly.word("y")), trunc)
    rhs = truncated_mul(ax, ay, trunc) - truncated_mul(ay, ax, trunc)
    return {
        "special": d.is_special(),
        "fixes_x_plus_y": fixes,
        "bracket_sample": lhs == rhs,
        "trunc": trunc,
    }


def group_injection_check(ft: Poly, trunc: int = DEFAULT_TRUNCATION) -> dict:
    """Composite group-level certificate for a double shuffle element.

    Verifies that Phi = exp_circle(ft) is group-like for both shuffle
    and corrected stuffle, that its logarithm recovers ft with Lie
    increments, and that the corresponding special derivation
    exponentiates to an automorphism fixing x + y.
    """
    if not is_ds(ft):
        raise ValueError("group_injection_check requires a double shuffle element")
    phi = exp_circle(ft, trunc)
    sh_rep = grouplike_shuffle_check(phi)
    st_rep = grouplike_stuffle_check(phi)
    back = log_circle(phi, require_lie_parts=True)
    d = ds_to_krv(ft)
    aut = automorphism_check(d, trunc)
    return {
        "trunc": trunc,
        "shuffle_grouplike": sh_rep,
        "stuffle_grouplike": st_rep,
        "log_roundtrip": back == _truncate(ft, trunc),
        "automorphism": aut,
        "verdict": sh_rep["verdict"]
        and st_rep["verdict"]
        and back == _truncate(ft, trunc)
        and aut["fixes_x_plus_y"]
        and aut["bracket_sample"],
    }
