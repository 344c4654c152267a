"""Group-level exponentials over the double shuffle and tangential worlds.

The Lie-algebra structures of the other modules exponentiate to
prounipotent groups.  Working with exact rational coefficients and a
degree truncation N, this module provides:

  - truncated power series, held as integer numerators over one
    positive denominator, reduced so that gcd(den, numerators) = 1 and
    equal series have equal forms; terms of degree > N are dropped, the
    constant term is kept, and the Fraction polynomial is built only on
    request (TruncSeries.poly);
  - the circled product f (.) g = fg + D_f(g), where D_f is the
    derivation x -> 0, y -> [y, f], and its exponential exp_circle,
    summed on integer numerators over one common denominator;
  - the inverse log_circle, recovered degree by degree;
  - group-likeness checks: (Phi | sh(u,v)) = (Phi|u)(Phi|v) over all
    word pairs, and the stuffle analog on the corrected series
    Phi_* = exp(sum_{n>=1} ((-1)^(n-1)/n) (Phi|x^(n-1)y) y^n) pi_y(Phi)
    over pairs of words ending in y; (Phi | sh(u,v)) is the (u, v)
    coefficient of the shuffle coproduct of Phi, computed densely on
    word-bit lists (dshuffle.shuffle_buckets) of the series' own
    numerators, so no product and no Fraction is built, and
    dshuffle.coproduct_sweep checks each bucket row u against
    Phi(u) Phi(v) at once;
  - exponentials of tangential derivations as automorphisms of the
    free Lie algebra, summed by the driver of exp_circle, with certificates
    that special derivations exponentiate to automorphisms fixing x + y;
  - a composite check tying the two exponentials together through the
    weight-preserving injection of double shuffle into the
    Kashiwara-Vergne Lie algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from . import words
from .poly import Coeff, Poly, X, Y, accumulate, numerators, poly_to_json, truncated_mul
from .lie import NotLieError, bracket, is_lie
from .dshuffle import coproduct_sweep, d_f, shuffle_buckets, stuffle_buckets
from .derivations import TangentialDerivation, ds_to_krv

DEFAULT_TRUNCATION = 12
MAX_TRUNCATION = 16  # the group-likeness checks hold lists of 2^T entries at degree T


def _cut(terms: dict, trunc: int) -> dict:
    """The terms of degree <= trunc: their codes lie below 2^(trunc+1)."""
    limit = 2 << trunc
    return {w: c for w, c in terms.items() if w < limit}


def _truncate(f: Poly, trunc: int) -> Poly:
    return Poly._of(_cut(f.terms, trunc))


class TruncSeries:
    """Power series with rational coefficients, exact below degree trunc+1.

    The series is num/den: integer numerators num (word code -> nonzero
    int, every word of degree <= trunc) over one positive int den, with
    gcd(den, *num.values()) = 1.  That form is unique, so == compares it
    as it stands.  A coefficient reads as an int when den is 1 and as a
    Fraction otherwise.
    """

    __slots__ = ("num", "den", "trunc")

    def __init__(self, poly: Poly, trunc: int):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        # Fractions are in lowest terms, so the lcm of their denominators
        # leaves no common factor with the numerators
        num, den = numerators(_truncate(poly, trunc))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _of(cls, num: dict[int, int], den: int, trunc: int) -> "TruncSeries":
        """Adopt num/den, a fresh zero-free dict of degrees <= trunc over den > 0,
        divided by the common factor of den and the numerators."""
        g = gcd(den, *num.values())
        if g > 1:
            num = {w: c // g for w, c in num.items()}
            den //= g
        new = object.__new__(cls)
        object.__setattr__(new, "num", num)
        object.__setattr__(new, "den", den)
        object.__setattr__(new, "trunc", trunc)
        return new

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        return TruncSeries._of, (dict(self.num), self.den, self.trunc)

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries":
        return cls(Poly.one(), trunc)

    def _value(self, c: int) -> Coeff:
        return Fraction(c, self.den) if c and self.den > 1 else c

    @property
    def poly(self) -> Poly:
        """The series as a polynomial with int or Fraction coefficients."""
        return Poly._of({w: self._value(c) for w, c in self.num.items()})

    @property
    def constant_term(self) -> Coeff:
        return self._value(self.num.get(words.EMPTY, 0))

    def coeff(self, w) -> Coeff:
        code = words.as_code(w)
        if code != words.EMPTY and words.degree(code) > self.trunc:
            raise ValueError("coefficient beyond the truncation order")
        return self._value(self.num.get(code, 0))

    def homogeneous_part(self, d: int) -> Poly:
        lo, hi = 1 << d, 2 << d
        return Poly._of({w: self._value(c) for w, c in self.num.items() if lo <= w < hi})

    def _combine(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        """self + sign * other over the lcm of the two denominators."""
        t = min(self.trunc, other.trunc)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = {w: a * c for w, c in _cut(self.num, t).items()}
        accumulate(num, _cut(other.num, t).items(), sign * b)
        return TruncSeries._of(num, den, t)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, -1)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        product = truncated_mul(Poly._of(self.num), Poly._of(other.num), t)
        return TruncSeries._of(product.terms, self.den * other.den, t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.trunc == other.trunc
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self) -> str:
        return f"<TruncSeries trunc={self.trunc} terms={len(self.num)}>"

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "series": poly_to_json(self.poly)}


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


def _exp(step, start: Poly, rise: int, scale: int, den: int, trunc: int) -> TruncSeries:
    """The series sum_k step^k(start) / (den scale^k k!) of integer polynomials,
    put over the one denominator den scale^top top! by int weights.  step
    raises every degree by at least rise, so at most (trunc - lowest degree
    of start) // rise steps are taken; they stop at the first zero power.
    """
    low = min(map(words.degree, start.terms), default=trunc)
    powers = [start]
    for _ in range((trunc - low) // rise):
        power = step(powers[-1])
        if not power:
            break
        powers.append(power)
    top = len(powers) - 1
    total: dict[int, int] = {}
    weight = 1  # scale^(top-k) top!/k!, the factor of powers[k] over the common denominator
    for k in range(top, -1, -1):
        accumulate(total, powers[k].terms.items(), weight)
        weight *= scale * k
    return TruncSeries._of(total, den * scale**top * factorial(top), trunc)


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
    rise = min(map(words.degree, num), default=trunc + 1)
    return _exp(lambda g: circle(scaled, g, trunc), Poly.one(), rise, den, 1, trunc)


def log_circle(phi: TruncSeries) -> Poly:
    """Inverse of exp_circle, computed degree by degree.

    At each degree d the difference phi - exp_circle(f) starts in
    degree d, and its degree-d part is the missing increment of f.
    Every increment is certified to be a Lie element (group elements of
    the double shuffle or tangential groups must have Lie logarithms).
    """
    if phi.constant_term != 1:
        raise ValueError("log_circle requires constant term 1")
    # The degree-e part of exp_circle(f) depends only on the parts of f of
    # degree <= e, so rest = phi - exp_circle(f) holds the increment of
    # every degree up to valid, and is recomputed only after f changes.
    f = Poly.zero()
    rest, valid = phi - TruncSeries.one(phi.trunc), phi.trunc
    for d in range(1, phi.trunc + 1):
        if valid < d:
            valid = phi.trunc
            rest = phi - exp_circle(f, valid)
        delta = rest.homogeneous_part(d)
        if not delta:
            continue
        if not is_lie(delta):
            raise NotLieError(f"degree-{d} increment of the logarithm is not Lie", delta)
        f = f + delta
        valid = d
    return f


# -- group-likeness -------------------------------------------------------------


def grouplike_shuffle_check(phi: TruncSeries) -> dict:
    """Check (Phi | sh(u, v)) = (Phi|u)(Phi|v) for all word pairs.

    Pairs are swept over 1 <= deg u <= deg v with deg u + deg v up to
    the truncation order.  Returns the verdict, a witness pair on
    failure, and the number of pairs checked.  Every pairing is read off
    the shuffle coproduct of Phi's numerators; no product is built.
    """
    return coproduct_sweep(shuffle_buckets(phi.num), phi.num, phi.den, phi.trunc)


def star_series(phi: TruncSeries) -> TruncSeries:
    """Phi_* = exp(sum ((-1)^(n-1)/n)(Phi|x^(n-1)y) y^n) pi_y(Phi).

    With Phi = P/D and L = lcm(1..trunc), the correction is the integer
    series sum (-1)^(n-1) (L/n) P(x^(n-1)y) y^n over L D, so the driver
    of exp_circle sums its exponential on integer numerators.  The
    projection onto words ending in y keeps the constant term of a
    series (unlike the polynomial operator pi_y, which has no use for
    empty words): it is the odd codes of P, over D.
    """
    trunc, den = phi.trunc, phi.den
    lcm_t = lcm(*range(1, trunc + 1))
    corr = Poly._of({
        words.y_power(n): (c if n & 1 else -c) * (lcm_t // n)
        for n in range(1, trunc + 1)
        if (c := phi.num.get((1 << n) | 1, 0))  # c = P(x^(n-1) y)
    })
    rise = min(map(words.degree, corr.terms), default=trunc + 1)
    correction = _exp(
        lambda g: truncated_mul(corr, g, trunc), Poly.one(), rise, lcm_t * den, 1, trunc
    )
    proj = TruncSeries._of({w: p for w, p in phi.num.items() if w & 1}, den, trunc)
    return correction * proj


def grouplike_stuffle_check(phi: TruncSeries) -> dict:
    """Check (Phi_* | st(u, v)) = Phi_*(u) Phi_*(v) for y-ending pairs.

    The pairs and the report are as in grouplike_shuffle_check, over
    words ending in y; the pairings come from the stuffle coproduct.
    """
    star = star_series(phi)
    return coproduct_sweep(stuffle_buckets(star.num), star.num, star.den, phi.trunc, y_ending=True)


# -- exponentials of tangential derivations --------------------------------------


def exp_derivation(
    d: TangentialDerivation, f: Poly, trunc: int = DEFAULT_TRUNCATION
) -> TruncSeries:
    """Apply exp(D) = sum D^k / k! to f, truncated beyond degree trunc.

    As in exp_circle, the powers run on integer numerators: with delta
    the lcm of the denominators of F and G, delta D is the derivation of
    (delta F, delta G), whose images are integral.  With f = P_0/e,
    P_k = (delta D)^k P_0 = delta^k D^k P_0 and exp(D) f is the series
    sum P_k / (e delta^k k!), over one denominator.
    """
    (fn, fd), (gn, gd) = numerators(d.F), numerators(d.G)
    delta = lcm(fd, gd)
    scaled = TangentialDerivation(
        Poly._of({w: c * (delta // fd) for w, c in fn.items()}),
        Poly._of({w: c * (delta // gd) for w, c in gn.items()}),
        check=False,
    )
    rise = min(map(words.degree, fn | gn), default=trunc + 1)  # D raises degrees by deg F
    num, den = numerators(_truncate(f, trunc))
    return _exp(lambda h: scaled.apply(h, trunc), Poly._of(num), rise, delta, den, trunc)


def automorphism_check(d: TangentialDerivation, trunc: int = DEFAULT_TRUNCATION) -> dict:
    """Certificates for A = exp(D) with D a tangential derivation.

    Checks that A(x) + A(y) = x + y through the truncation order when D
    is special, and that A respects brackets on a sample:
    A([x, y]) = [A(x), A(y)] up to the truncation order.  Both sides are
    compared as truncated series, on integer numerators.
    """
    ax, ay, lhs = (exp_derivation(d, h, trunc) for h in (X, Y, bracket(X, Y)))
    return {
        "special": d.is_special(),
        "fixes_x_plus_y": ax + ay == TruncSeries(X + Y, trunc),
        "bracket_sample": lhs == ax * ay - ay * ax,
        "trunc": trunc,
    }


def group_certificate(ft: Poly, phi: TruncSeries) -> dict:
    """Composite group-level certificate for a double shuffle element ft
    and its exponential Phi = exp_circle(ft, trunc), built by the caller.

    Verifies that Phi is group-like for both shuffle and corrected
    stuffle, that its logarithm recovers ft with Lie increments (so Phi
    is the exponential of ft), and that the corresponding special
    derivation exponentiates to an automorphism fixing x + y.
    """
    d = ds_to_krv(ft)  # the one ds membership test: ValueError outside ds
    trunc = phi.trunc
    sh_rep = grouplike_shuffle_check(phi)
    st_rep = grouplike_stuffle_check(phi)
    roundtrip = log_circle(phi) == _truncate(ft, trunc)
    aut = automorphism_check(d, trunc)
    return {
        "trunc": trunc,
        "shuffle_grouplike": sh_rep,
        "stuffle_grouplike": st_rep,
        "log_roundtrip": roundtrip,
        "automorphism": aut,
        "verdict": sh_rep["verdict"]
        and st_rep["verdict"]
        and roundtrip
        and aut["fixes_x_plus_y"]
        and aut["bracket_sample"],
    }
