"""Tangential derivations and the Kashiwara-Vergne side.

A tangential derivation of the free Lie algebra on x, y is determined
by a pair (F, G) of Lie elements via x -> [x, G], y -> [y, F].  It is
special when it kills x + y, i.e. [x, G] + [y, F] = 0; given F of
degree > 1 the special partner G is unique when it exists.

krv membership adds the trace condition: tr(F_y y + G_x x) must be a
rational multiple of tr((x+y)^n - x^n - y^n) in the space of cyclic
words.  This module computes all of that exactly, provides the
five-way equivalence report for specialness, the reconstruction of a
Lie element from one bracket factor, and the weight-preserving
injection of the double shuffle Lie algebra into krv.

Specialness and the trace condition are linear in (F, G), and push
constants are linear in F, so vkv_check, pushconst_transport and the
span checks of kv_dimensions run on the integer numerators P of their
input, where (P, u) = poly.integral(f); _divided_derivation multiplies
a derivation built on P by u.
special_equivalences builds [F, y] once and passes it to
partner_by_elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import CrossCheckError, linalg, words
from .dshuffle import is_ds
from .lie import NotLieError, bracket, from_coords, is_lie, lyndon_basis, to_coords
from .poly import (
    Coeff,
    Poly,
    Terms,
    X,
    Y,
    _divided,
    _map_words,
    _reject_empty,
    _section_numerators,
    accumulate,
    anti,
    coeff_to_str,
    decompose_left,
    decompose_right,
    derive,
    integral,
    is_antipalindromic,
    is_push_invariant,
    negate_y,
    poly_to_json,
    push_constant,
    s_map,
    s_prime_map,
    subst_linear,
    swap_xy,
)

_UNSET = object()  # a cached value not computed yet
_MINUS_X_MINUS_Y = -X - Y  # the image of x under the change of variables F = f(-x-y, y)


# -- cyclic words -------------------------------------------------------------


class CyclicPoly(Terms):
    """Linear combination of cyclic words (words up to rotation).

    Keys are the lexicographically smallest rotation of each word.
    """

    __slots__ = ()

    def coeff(self, w: words.WordLike) -> Coeff:
        return self.terms.get(words.cyclic_min(words.as_code(w)), 0)

    def __repr__(self) -> str:
        inner = " + ".join(
            f"{c}*({words.str_from_code(w)})" for w, c in sorted(self.terms.items())
        )
        return f"<CyclicPoly {inner or 0}>"


def trace(f: Poly) -> CyclicPoly:
    """Project a polynomial onto cyclic words (trace map)."""
    _reject_empty(f, "trace")
    return CyclicPoly._of(_map_words(f, words.cyclic_min).terms)


# -- tangential derivations ----------------------------------------------------


class TangentialDerivation:
    """The derivation x -> [x, G], y -> [y, F] attached to a pair (F, G).

    The images ([x, G], [y, F]) of x and y are built once, with the
    instance, and the trace constant on first use.
    """

    __slots__ = ("F", "G", "images", "_trace")

    def __init__(self, F: Poly, G: Poly, check: bool = True):
        if check:
            for h, name in ((F, "F"), (G, "G")):
                if h and not h.is_homogeneous():
                    raise ValueError(f"{name} must be homogeneous")
                if not is_lie(h):
                    raise NotLieError(f"{name} is not a Lie element", h)
            if F and G and F.degree() != G.degree():
                raise ValueError("F and G must have the same degree")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "images", (bracket(X, G), bracket(Y, F)))
        object.__setattr__(self, "_trace", _UNSET)

    def __setattr__(self, name, value):
        raise AttributeError("TangentialDerivation is immutable")

    def __reduce__(self):
        return TangentialDerivation, (self.F, self.G, False)

    @property
    def degree(self) -> int | None:
        return self.F.degree() if self.F else self.G.degree()

    def apply(self, h: Poly, trunc: int | None = None) -> Poly:
        """Apply the derivation to an arbitrary polynomial.

        With trunc given, terms of degree > trunc are never built.
        """
        return derive(h, *self.images, trunc)

    def special_residual(self) -> Poly:
        """[x, G] + [y, F]; zero exactly for special derivations."""
        x_image, y_image = self.images
        return x_image + y_image

    def is_special(self) -> bool:
        return not self.special_residual()

    def commutator(self, other: "TangentialDerivation") -> "TangentialDerivation":
        """Bracket of tangential derivations, again tangential."""
        f = bracket(self.F, other.F) + self.apply(other.F) - other.apply(self.F)
        g = bracket(self.G, other.G) + self.apply(other.G) - other.apply(self.G)
        return TangentialDerivation(f, g, check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TangentialDerivation)
            and self.F == other.F
            and self.G == other.G
        )

    def __repr__(self) -> str:
        return f"<TangentialDerivation deg={self.degree}>"

    def to_json(self) -> dict:
        a = trace_constant(self)
        return {
            "degree": self.degree,
            "F": poly_to_json(self.F),
            "G": poly_to_json(self.G),
            "special": self.is_special(),
            "traceA": None if a is None else coeff_to_str(a),
        }


def _divided_derivation(d: TangentialDerivation, u: Coeff) -> TangentialDerivation:
    """d u for the derivation d of the integer numerators P of some f,
    where (P, u) = poly.integral(f).

    F and G are multiplied as poly._divided does it, and the trace
    constant of d, which is linear in (F, G), is handed over times u, so
    that it is never recomputed on Fractions.
    """
    a = trace_constant(d)
    new = TangentialDerivation(_divided(d.F, u), _divided(d.G, u), check=False)
    object.__setattr__(new, "_trace", None if a is None else u * a)
    return new


# -- specialness: construction and the five-way equivalence -------------------


def solve_partner(F: Poly) -> Poly:
    """Candidate special partner G = s'(F_x)."""
    fx, _ = decompose_right(F)
    return s_prime_map(fx)


def partner_by_elimination(F: Poly, rhs: Poly | None = None) -> Poly | None:
    """Solve [x, G] = -[y, F] for Lie G directly, or None.

    Honest existence check by exact back-substitution.  With n the
    degree of F and R = -[y, F], the equation xG - Gx = R is triangular
    on the words of R that start with x: each word w = x^(k+1) p of R,
    with p nonempty and x^(k+1) a prefix of w, adds R_w to G at p x^k.
    The candidate is accepted only when it is homogeneous of degree n,
    solves [x, G] = R exactly and peels to a zero residual in the Lyndon
    basis.  No other Lie G can solve the equation: for n >= 2 a Lie
    element has no x^n term and ad x is injective on Lie_n (only
    multiples of x commute with x).  For n = 1 the x-coordinate is set
    to 0, so the partner of x is y and that of y is 0.

    rhs, when given, is R = [F, y]; otherwise it is built from F.
    """
    n = F.degree()
    if n is None:
        return Poly.zero()
    if rhs is None:
        rhs = bracket(F, Y)
    pairs = []
    for w, c in rhs.terms.items():
        m = words.degree(w)
        bits = w ^ (1 << m)  # the letters of w; its leading x's are leading 0 bits
        lead_x = m - bits.bit_length()
        for k in range(lead_x):
            p = (1 << (m - k - 1)) | bits  # w = x^(k+1) p; w has a y, so p is nonempty
            pairs.append((p << k, c))  # the word p x^k
    g = Poly._of(accumulate({}, pairs))
    if g and (not g.is_homogeneous() or g.degree() != n):
        return None
    if bracket(X, g) != rhs:
        return None
    try:
        coords = to_coords(g, n)
    except NotLieError:
        return None
    return from_coords([Fraction(c) for c in coords], n)


def special_equivalences(f: Poly) -> dict:
    """The five equivalent characterizations of specialness, evaluated
    independently on a homogeneous Lie element f of degree >= 2.

    With F = f(-x-y, y), the conditions are:
      existence   - some Lie G solves [y,F] + [x,G] = 0 (exact back-substitution)
      formula     - G = s'(F_x) is Lie and solves the equation
      right_anti  - F_y is antipalindromic
      push_inv    - F is push-invariant
      factor_anti - f_y - f_x is antipalindromic
    Returns the five booleans plus 'agree' and, when available, the
    solved partner G.
    """
    n = f.degree()
    if not f or not f.is_homogeneous() or n < 2:
        raise ValueError(
            "special_equivalences requires nonzero homogeneous input of degree >= 2"
        )
    if not is_lie(f):
        raise NotLieError("special_equivalences requires a Lie element", f)
    big_f = subst_linear(f, _MINUS_X_MINUS_Y, Y)
    big_fx, big_fy = decompose_right(big_f)
    fx, fy = decompose_right(f)

    rhs = bracket(big_f, Y)
    g_solved = partner_by_elimination(big_f, rhs)
    existence = g_solved is not None

    # G = s'(F_x) = P/D solves [x, G] = [F, y] when [x, P] = D [F, y]; only
    # then is G built and peeled in the Lyndon basis
    num, den = _section_numerators(big_fx, right=False)
    formula = bracket(X, Poly._of(num)) == rhs.scale(den)
    g_formula = None
    if formula:
        g_formula = _divided(Poly._of(num), Fraction(1, den))
        formula = is_lie(g_formula)

    report = {
        "existence": existence,
        "formula": formula,
        "right_anti": is_antipalindromic(big_fy),
        "push_inv": is_push_invariant(big_f),
        "factor_anti": is_antipalindromic(fy - fx),
    }
    verdicts = set(report.values())
    report["agree"] = len(verdicts) == 1
    report["partner"] = g_solved
    if existence and formula and g_solved != g_formula:
        raise CrossCheckError("the two partner constructions disagree")
    return report


def special_derivation(F: Poly) -> TangentialDerivation | None:
    """The special derivation with y-part F, if F admits one."""
    g = solve_partner(F)
    d = TangentialDerivation(F, g, check=False)
    if not is_lie(g) or not d.is_special():
        return None
    return d


# -- factor reconstruction -----------------------------------------------------


def factor_out_x(f: Poly) -> Poly:
    """Write f = [x, h] with h Lie, assuming no word of f starts and ends in y.

    The right y-factor of such an f is x P for a polynomial P, and
    h = s_map(P) does the job; h is returned after exact verification.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous() or n < 2:
        raise ValueError("factor_out_x requires homogeneous input of degree >= 2")
    for w in f.terms:
        if words.starts_with_y(w) and words.ends_in_y(w):
            raise ValueError("a word of f starts and ends in y")
    p, rest = decompose_left(decompose_right(f)[1])
    if rest:
        raise ValueError("the right y-factor is not divisible by x on the left")
    h = s_map(p)
    if not is_lie(h):
        raise NotLieError("reconstructed factor is not Lie", h)
    if bracket(X, h) != f:
        raise ValueError("reconstruction failed: [x, h] != f")
    return h


def factor_out_y(f: Poly) -> Poly:
    """Write f = [y, h] with h Lie, assuming no word of f starts and ends in x."""
    return swap_xy(factor_out_x(swap_xy(f)))


# -- the trace condition and krv ------------------------------------------------


def mixed_trace(n: int) -> CyclicPoly:
    """tr((x+y)^n - x^n - y^n): every cyclic class except the two pure ones."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    f = Poly({w: 1 for w in words.all_words(n)})
    f = f - Poly.word(words.x_power(n)) - Poly.word(words.y_power(n))
    return trace(f)


def trace_constant(d: TangentialDerivation) -> Fraction | None:
    """The rational A with tr(F_y y + G_x x) = A tr((x+y)^n - x^n - y^n).

    Returns None when the trace condition fails.  Degree-1 derivations
    satisfy it trivially with A = 0.  Computed once per derivation.
    """
    if d._trace is not _UNSET:
        return d._trace
    n = d.degree
    if n is None or n == 1:
        a = Fraction(0)
    else:
        _, fy = decompose_right(d.F)
        gx, _ = decompose_right(d.G)
        t = trace(fy * Y + gx * X)
        r = mixed_trace(n)
        key = min(r.terms)
        a = Fraction(t.terms.get(key, 0), 1) / r.terms[key]
        if t != r.scale(a):
            a = None
    object.__setattr__(d, "_trace", a)
    return a


def krv_check(d: TangentialDerivation) -> bool:
    """Membership in krv: special plus the trace condition."""
    return d.is_special() and trace_constant(d) is not None


def vkv_check(F: Poly) -> bool:
    """Membership in the divisor-side model: F_y antipalindromic and
    F_y - F_x push-constant (for some A)."""
    if not F or not F.is_homogeneous():
        raise ValueError("vkv_check requires nonzero homogeneous input")
    F = integral(F)[0]  # scale-invariant: on the numerators
    if not is_lie(F):
        raise NotLieError("vkv_check requires a Lie element", F)
    fx, fy = decompose_right(F)
    if fy and not is_antipalindromic(fy):
        return False
    return push_constant(fy - fx) is not None


# -- transport of push-constancy ------------------------------------------------


def pushconst_transport(f: Poly) -> dict:
    """From f_y push-constant A, certify that F_y - F_x is push-constant
    for the same A, where F = f(-x-y, y).

    Precondition: f homogeneous Lie with f_y push-constant; for even n
    the constant must vanish (for odd n no extra condition).

    Both constants are linear in f: they are taken on the integer
    numerators P of f and multiplied by u, where (P, u) = poly.integral(f).
    """
    n = f.degree()
    if n is None or not f.is_homogeneous():
        raise ValueError("pushconst_transport requires nonzero homogeneous input")
    p, u = integral(f)
    if not is_lie(p):
        raise NotLieError("pushconst_transport requires a Lie element", f)
    a = push_constant(decompose_right(p)[1], u)
    if a is None:
        raise ValueError("f_y is not push-constant")
    if n % 2 == 0 and a != 0:
        raise ValueError("even degree forces a vanishing push constant")
    bfx, bfy = decompose_right(subst_linear(p, _MINUS_X_MINUS_Y, Y))
    got = push_constant(bfy - bfx, u)
    return {"A": a, "transported": got, "ok": got == a}


# -- the injection of ds ---------------------------------------------------------


def ds_to_krv(ft: Poly, check: bool = True) -> TangentialDerivation:
    """Image of a double shuffle element under the weight-preserving
    injection into krv.

    The element is twisted by y -> -y, x is substituted by -x-y, and
    the special partner is G = s_map(F^x).  With check=True the input
    is verified to be in ds and the output is verified special with a
    valid trace constant.
    """
    if check and not is_ds(ft):
        raise ValueError("input is not a double shuffle element")
    f = negate_y(ft)
    big_f = subst_linear(f, _MINUS_X_MINUS_Y, Y)
    f_upper_x, _ = decompose_left(big_f)
    g = s_map(f_upper_x)
    d = TangentialDerivation(big_f, g, check=check)
    if check:
        if not d.is_special():
            raise ValueError("image derivation is not special")
        if trace_constant(d) is None:
            raise ValueError("image derivation fails the trace condition")
    return d


def krv_to_ds(d: TangentialDerivation) -> Poly:
    """Inverse of ds_to_krv on its image, reading only D(y) = [y, F].

    Recovers F by factoring y out of the derivation's value on y (via
    the x/y mirror of factor_out_x), undoes the substitution, and
    untwists y -> -y.
    """
    h = d.apply(Y)
    if not h:
        return Poly.zero()
    big_f = factor_out_y(h)
    f = subst_linear(big_f, _MINUS_X_MINUS_Y, Y)
    return negate_y(f)


# -- dimension bookkeeping --------------------------------------------------------


def _antipalindromy_rows(n: int) -> tuple[list[list[Coeff]], int]:
    """Rows over Lyndon coordinates expressing 'F_y is antipalindromic'."""
    lb = lyndon_basis(n)
    sign = 1 if (n - 1) % 2 == 0 else -1
    conds = []
    for e in lb.expansions:
        _, ey = decompose_right(e)
        conds.append(ey - anti(ey).scale(sign))
    word_set = sorted(set().union(*(set(c.terms) for c in conds)) or set())
    rows = [[c.terms.get(w, 0) for c in conds] for w in word_set]
    return rows, lb.dimension


def kv_dimensions(n: int) -> dict:
    """Dimensions of the special, krv and divisor-model subspaces at
    weight n, computed by independent linear systems, with the span
    equality of the two models certified element by element."""
    rows_iii, d = _antipalindromy_rows(n)
    splits = [decompose_right(e) for e in lyndon_basis(n).expansions]

    # krv: antipalindromy plus the trace condition, unknowns (coords, A).
    # s'(F_x) = P/D with integer numerators P over D = (n-1)!, since each
    # F_x is integral of degree n - 1; the trace rows are built on P, each
    # row scaled by D and then divided by its content, which leaves the
    # kernel unchanged and the entries no larger than those of the
    # Fraction rows scaled to integers.
    krv_rows = [r + [0] for r in rows_iii]
    sections = [_section_numerators(ex, right=False) for ex, _ in splits]
    scale = lcm(1, *(den for _, den in sections))
    traces = []
    for (_, ey), (num, den) in zip(splits, sections):
        k = scale // den
        gx, _ = decompose_right(Poly._of(num if k == 1 else {w: c * k for w, c in num.items()}))
        traces.append(trace((ey * Y).scale(scale) + gx * X))
    r_cyc = mixed_trace(n)
    classes = sorted(set().union(*(set(t.terms) for t in traces), set(r_cyc.terms)))
    for w in classes:
        row = [t.terms.get(w, 0) for t in traces] + [-scale * r_cyc.terms.get(w, 0)]
        g = gcd(*row)
        krv_rows.append([v // g for v in row] if g > 1 else row)
    krv_null = linalg.nullspace(krv_rows, d + 1)

    # divisor model: antipalindromy plus push-constancy of F_y - F_x
    vkv_rows = [r + [0] for r in rows_iii]
    diffs = [ey - ex for ex, ey in splits]
    m = n - 1
    for orbit in words.push_orbits(m):
        w = orbit[0]
        if words.is_power_of_y(w):
            vkv_rows.append([g.terms.get(w, 0) for g in diffs] + [0])
        else:
            vkv_rows.append(
                [sum(g.terms.get(v, 0) for v in orbit) for g in diffs] + [-1]
            )
    vkv_null = linalg.nullspace(vkv_rows, d + 1)

    # the last unknown is A (krv) or the push constant (vkv)
    krv_elems = [from_coords(vec[:d], n) for vec in krv_null]
    vkv_elems = [from_coords(vec[:d], n) for vec in vkv_null]
    # krv_check is scale-invariant: it runs on the derivation of the
    # numerators of each element (vkv_check takes them itself)
    same_span = len(krv_null) == len(vkv_null) and all(
        krv_check(special_derivation(p) or TangentialDerivation(p, Poly.zero()))
        for p, _ in map(integral, vkv_elems)
    ) and all(vkv_check(f) for f in krv_elems if f)

    return {
        "weight": n,
        "dim_special": linalg.nullity(rows_iii, d),
        "dim_krv": len(krv_null),
        "dim_vkv": len(vkv_null),
        "same_span": same_span,
        "krv_basis": krv_elems,
        "vkv_basis": vkv_elems,
    }
