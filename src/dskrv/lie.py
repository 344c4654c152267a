"""Free Lie algebra machinery inside the tensor algebra on x, y.

Lie elements are ordinary Poly objects that happen to lie in the span
of commutators.  Coordinates are taken in the Lyndon basis (standard
right-factorization bracketings, whose expansions are unitriangular
against the Lyndon words), and membership is decided exactly by peeling
those coordinates off each homogeneous part: a nonzero residual means
the part is not Lie.  The right-nested bracketing map dynkin_phi,
with phi(f) = n f on a degree-n Lie element, is the Dynkin criterion
that the tests compare this against.
Seeded random Lie elements are drawn as small integer coordinate
vectors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import words
from .poly import Coeff, Poly, accumulate, concat_pairs, integral


class NotLieError(ValueError):
    """Raised when a polynomial fails to be a Lie element; carries the residual."""

    def __init__(self, message: str, residual: Poly):
        super().__init__(message)
        self.residual = residual


def bracket(f: Poly, g: Poly) -> Poly:
    """Commutator fg - gf.

    When f or g is homogeneous, every word of fg, and of gf, has one
    factorization: fg is built as a dict with no repeated key, and the
    products of gf are subtracted from it one at a time.  That gives the
    values, types and dict order of f * g - g * f, with no intermediate
    polynomial.  A factor that is the letter x or y appends and prepends
    that letter to the words of the other factor directly.
    """
    if (bit := _unit_letter(g)) is not None:
        terms = {(w << 1) | bit: c for w, c in f.terms.items()}
        pairs = zip(_prepended(bit, f), f.terms.values())
    elif (bit := _unit_letter(f)) is not None:
        terms = dict(zip(_prepended(bit, g), g.terms.values()))
        pairs = zip([(w << 1) | bit for w in g.terms], g.terms.values())
    elif not (f.is_homogeneous() or g.is_homogeneous()):
        return f * g - g * f
    else:
        terms = dict(concat_pairs(f, g))
        pairs = concat_pairs(g, f)
    get = terms.get
    for k, v in pairs:
        s = get(k, 0) - v
        if s:
            terms[k] = s
        else:
            del terms[k]
    return Poly._of(terms)


def _unit_letter(p: Poly) -> int | None:
    """0 if p is the word x with coefficient int 1, 1 if it is y; else None."""
    if len(p.terms) == 1:
        ((w, c),) = p.terms.items()
        if (w == words.X_CODE or w == words.Y_CODE) and c == 1 and type(c) is int:
            return w & 1
    return None


def _prepended(bit: int, h: Poly) -> list[int]:
    """The code of l w for each word w of h, l the letter x (bit 0) or y (bit 1)."""
    return [w + ((1 + bit) << (w.bit_length() - 1)) for w in h.terms]


_phi_cache: dict[int, Poly] = {}


def _phi_word(w: int) -> Poly:
    """Right-nested bracketing [l1,[l2,...[l_{m-1},l_m]...]] of a word."""
    cached = _phi_cache.get(w)
    if cached is not None:
        return cached
    n = words.degree(w)
    if n == 1:
        res = Poly.word(w)
    else:
        head = (1 << 1) | ((w >> (n - 1)) & 1)  # first letter as a word code
        rest = (1 << (n - 1)) | (w & ((1 << (n - 1)) - 1))
        res = bracket(Poly.word(head), _phi_word(rest))
    _phi_cache[w] = res
    return res


def dynkin_phi(f: Poly) -> Poly:
    """Linear extension of the right-nested bracketing map."""
    terms: dict[int, Coeff] = {}
    for w, c in f.terms.items():
        if w == words.EMPTY:
            raise ValueError("dynkin_phi is not defined on the empty word")
        accumulate(terms, _phi_word(w).terms.items(), c)
    return Poly._of(terms)


def is_lie(f: Poly) -> bool:
    """Exact Lie membership by Lyndon peeling, per degree.

    Each homogeneous part, scaled to integer coefficients, must expand
    in the Lyndon basis (`to_coords`); a nonzero constant term is never
    Lie.
    """
    for n in f.degrees():
        if n == 0:
            return False
        # on integer numerators: scaling does not change membership
        part = integral(f.homogeneous_part(n))[0]
        try:
            to_coords(part, n)
        except NotLieError:
            return False
    return True


# -- Lyndon basis ------------------------------------------------------------


def _lyndon_tuples(n: int) -> list[tuple[int, ...]]:
    """All Lyndon words of length n over (0, 1), lexicographically."""
    out = []
    w = [0]
    while w:
        if len(w) == n:
            out.append(tuple(w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def _standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word as u v with v its lexicographically least proper suffix."""
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@lru_cache(maxsize=None)
def _lyndon_expansion(w: tuple[int, ...]) -> Poly:
    if len(w) == 1:
        return Poly.word((1 << 1) | w[0])
    u, v = _standard_factorization(w)
    return bracket(_lyndon_expansion(u), _lyndon_expansion(v))


class LyndonBasis:
    """Lyndon-word basis of the degree-n part of the free Lie algebra."""

    __slots__ = ("degree", "word_codes", "expansions")

    def __init__(self, n: int):
        # for words of one length, lexicographic order is code order
        tuples = _lyndon_tuples(n)
        codes = []
        for t in tuples:
            code = 1
            for bit in t:
                code = (code << 1) | bit
            codes.append(code)
        self.degree = n
        self.word_codes = codes
        self.expansions = [_lyndon_expansion(t) for t in tuples]

    @property
    def dimension(self) -> int:
        return len(self.word_codes)


@lru_cache(maxsize=None)
def lyndon_basis(n: int) -> LyndonBasis:
    if n < 1:
        raise ValueError("degree must be >= 1")
    return LyndonBasis(n)


def to_coords(f: Poly, n: int | None = None) -> list[Coeff]:
    """Coordinates of a homogeneous Lie element in the Lyndon basis.

    The bracketed Lyndon word expands as the word itself plus
    lexicographically larger words, so coordinates peel off by scanning
    basis words in increasing order.  A nonzero residual after peeling
    means f is not Lie; the residual is attached to the error.
    """
    if n is None:
        n = f.degree()
        if n is None:
            raise ValueError("cannot infer the degree of the zero polynomial")
    if not f.is_homogeneous():
        raise ValueError("to_coords requires a homogeneous polynomial")
    basis = lyndon_basis(n)
    residual = dict(f.terms)
    coords: list[Coeff] = []
    for w, expansion in zip(basis.word_codes, basis.expansions):
        c = residual.get(w, 0)
        coords.append(c)
        accumulate(residual, expansion.terms.items(), -c)
    if residual:
        raise NotLieError(
            "polynomial is not in the free Lie algebra", Poly(residual)
        )
    return coords


def from_coords(coords: list[Coeff], n: int) -> Poly:
    """The degree-n Lie element sum c * e over coords and the Lyndon expansions e.

    Each coefficient has the value, the int/Fraction type and the dict
    position of that sum taken term by term with accumulate.  When every
    coordinate is a Fraction, as in a nullspace vector, the sum runs on
    the integer numerators over the lcm D of the denominators, and each
    coefficient is divided by D once at the end.
    """
    basis = lyndon_basis(n)
    if len(coords) != basis.dimension:
        raise ValueError(
            f"expected {basis.dimension} coordinates for degree {n}, got {len(coords)}"
        )
    fractions = all(type(c) is Fraction for c in coords)
    if fractions:
        den = lcm(1, *(c.denominator for c in coords))
        coords = [c.numerator * (den // c.denominator) for c in coords]
    terms: dict[int, Coeff] = {}
    for c, expansion in zip(coords, basis.expansions):
        accumulate(terms, expansion.terms.items(), c)
    if fractions:
        terms = {w: Fraction(v, den) for w, v in terms.items()}
    return Poly._of(terms)


def random_lie(n: int, seed: int) -> Poly:
    """Seeded random Lie element with small integer Lyndon coordinates."""
    rng = random.Random(f"lie:{n}:{seed}")
    dim = lyndon_basis(n).dimension
    while True:
        coords = [rng.randint(-9, 9) for _ in range(dim)]
        if any(coords):
            return from_coords(coords, n)
