"""Sparse polynomials in noncommuting x, y with exact rational coefficients.

Terms is the one sparse-term format of the package, shared by Poly,
moulds.CPoly and derivations.CyclicPoly: a dict from keys to Python
ints or Fractions, never floats, with no zero value.  The public
constructor copies the caller's dict and drops zeros; Terms._of adopts
a fresh zero-free dict, such as one that accumulate has just built,
without copying it.  Poly keys are packed word codes (see words.py).

Besides ring arithmetic this module implements the word-level operators
that the rest of the package is built on: coefficient extraction,
linear substitution, the derivation d/dx, derivations given by the
images of x and y, degree-truncated products, reversal (anti), push,
left/right factor decompositions f = x f^x + y f^y = f_x x + f_y y, the
section maps s and s' that rebuild a Lie element from one factor, and
the palindromy / push-invariance / push-constancy predicates.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from numbers import Rational
from typing import Iterable, Iterator, Union

from . import words
from .words import EMPTY, WordLike, as_code

Coeff = Union[int, Fraction]


def accumulate(terms: dict, pairs: Iterable[tuple], c: Coeff = 1) -> dict:
    """Add c*v into terms[k] for each (k, v) of pairs, in place; returns terms.

    A key whose sum is 0 is deleted, so a key keeps its position unless it
    cancels.  Each coefficient has the value and the int/Fraction type of
    the plain sum terms.get(k, 0) + c*v; c = 0 leaves terms unchanged.
    """
    if not c:
        return terms
    one = c == 1 and type(c) is int  # then c*v is v, and the product is skipped
    get = terms.get
    for k, v in pairs:
        s = get(k, 0) + (v if one else c * v)
        if s:
            terms[k] = s
        elif k in terms:
            del terms[k]
    return terms


class Terms:
    """An immutable finite linear combination with rational coefficients.

    terms maps each key (a word code, a cyclic word, an exponent tuple)
    to its nonzero int or Fraction coefficient.  Every operation returns
    a fresh object of the same kind, which alone holds its dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        """Copy terms, dropping zero coefficients."""
        object.__setattr__(self, "terms", {k: c for k, c in (terms or {}).items() if c})

    @classmethod
    def _of(cls, terms: dict):
        """Adopt terms, a fresh dict with no zero value that no one else holds."""
        new = object.__new__(cls)
        object.__setattr__(new, "terms", terms)
        return new

    def _like(self, terms: dict):
        """A result of the same kind as self that adopts terms (see _of)."""
        return self._of(terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild through the constructor, not by slot assignment."""
        return type(self), (self.terms,)

    def __add__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items(), -1))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c: Coeff):
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)


class Poly(Terms):
    """A finite linear combination of words with rational coefficients."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of({})

    @classmethod
    def one(cls) -> "Poly":
        """The multiplicative unit (empty word)."""
        return cls._of({EMPTY: 1})

    @classmethod
    def word(cls, w: WordLike, c: Coeff = 1) -> "Poly":
        return cls({as_code(w): c})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[WordLike, Coeff]]) -> "Poly":
        terms: dict[int, Coeff] = {}
        for w, c in pairs:
            code = as_code(w)
            terms[code] = terms.get(code, 0) + c
        return cls(terms)

    # -- basic queries ---------------------------------------------------

    def coeff(self, w: WordLike) -> Coeff:
        """The coefficient (f|w); w must be a nonempty word."""
        code = as_code(w)
        if code == EMPTY:
            raise ValueError("coefficient of the empty word is not defined")
        return self.terms.get(code, 0)

    def pairing(self, g: "Poly") -> Coeff:
        """Bilinear pairing sum of (f|w)(g|w) over words."""
        a, b = self.terms, g.terms
        if len(b) < len(a):
            a, b = b, a
        return sum(c * b[w] for w, c in a.items() if w in b)

    def support(self) -> list[int]:
        """Word codes with nonzero coefficient, in canonical order."""
        return sorted(self.terms)

    def items(self) -> Iterator[tuple[int, Coeff]]:
        """(code, coeff) pairs in canonical term order."""
        for w in sorted(self.terms):
            yield w, self.terms[w]

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(words.degree(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        return len({words.degree(w) for w in self.terms}) <= 1

    def homogeneous_part(self, n: int) -> "Poly":
        return Poly._of({w: c for w, c in self.terms.items() if words.degree(w) == n})

    def degrees(self) -> list[int]:
        return sorted({words.degree(w) for w in self.terms})

    def depth_part(self, r: int) -> "Poly":
        return Poly._of({w: c for w, c in self.terms.items() if words.depth(w) == r})

    def depths(self) -> list[int]:
        return sorted({words.depth(w) for w in self.terms})

    # -- ring operations --------------------------------------------------

    def __mul__(self, other) -> "Poly":
        """Concatenation product, or scalar multiple for rational other."""
        if isinstance(other, Rational):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        pairs = (
            (words.concat_codes(a, b), ca * cb)
            for a, ca in self.terms.items()
            for b, cb in other.terms.items()
        )
        return Poly._of(accumulate({}, pairs))

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.items():
            name = "1" if w == EMPTY else words.str_from_code(w)
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Poly {self}>"


def _map_words(f: Poly, word_map) -> Poly:
    return Poly._of(accumulate({}, ((word_map(w), c) for w, c in f.terms.items())))


def _reject_empty(f: Poly, op: str) -> None:
    if EMPTY in f.terms:
        raise ValueError(f"{op} is not defined on the empty word")


# -- word operators, extended linearly ------------------------------------


def anti(f: Poly) -> Poly:
    """Reverse every word."""
    _reject_empty(f, "anti")
    return _map_words(f, words.anti_code)


def push(f: Poly) -> Poly:
    """Apply the push rotation to every word."""
    _reject_empty(f, "push")
    return _map_words(f, words.push_code)


def swap_xy(f: Poly) -> Poly:
    """Exchange the letters x and y in every word."""
    _reject_empty(f, "swap_xy")

    def flip(code: int) -> int:
        n = words.degree(code)
        return code ^ ((1 << n) - 1)

    return _map_words(f, flip)


def negate_y(f: Poly) -> Poly:
    """Substitute y -> -y (sign by y-count); x is fixed."""
    _reject_empty(f, "negate_y")
    return Poly._of({w: -c if words.depth(w) & 1 else c for w, c in f.terms.items()})


def pi_y(f: Poly) -> Poly:
    """Projection onto the span of words ending in y."""
    _reject_empty(f, "pi_y")
    return Poly._of({w: c for w, c in f.terms.items() if words.ends_in_y(w)})


def partial_x(f: Poly) -> Poly:
    """Derivation d/dx: delete one x from each word in all ways.

    The empty word is a constant for the derivation: x maps to the
    unit, the unit maps to zero.
    """
    pairs = (
        (((w >> (i + 1)) << i) | (w & ((1 << i) - 1)), c)
        for w, c in f.terms.items()
        for i in range(words.degree(w))
        if not (w >> i) & 1  # x at bit position i
    )
    return Poly._of(accumulate({}, pairs))


def subst_linear(f: Poly, x_image: Poly, y_image: Poly) -> Poly:
    """Algebra substitution x -> x_image, y -> y_image.

    Both images must be homogeneous of degree 1, so the substitution
    preserves grading.  With x -> a x + b y and y -> c x + d y it acts on
    the words of length n as the n-fold Kronecker power of the matrix
    ((a, b), (c, d)), applied as a sparse butterfly on the integer
    numerators of f: one pass per letter position, in which a word with
    x there sends a*p to itself and b*p to the word with y there, a word
    with y sends c*p to the word with x there and d*p to itself, and
    shorter words pass through.  Only words reachable from f are held,
    and each output coefficient is divided out once, at the end.

    Terms come in ascending code order.  An output coefficient is a
    Fraction when a Fraction, of f or of an image entry on its path,
    contributes to it, and an int otherwise.
    """
    for g in (x_image, y_image):
        if g and (not g.is_homogeneous() or g.degree() != 1):
            raise ValueError("substitution images must be linear in x, y")
    if EMPTY in f.terms:
        raise ValueError("subst_linear is not defined on the empty word")
    entries = [g.terms.get(w, 0) for g in (x_image, y_image) for w in (words.X_CODE, words.Y_CODE)]
    scale = lcm(1, *(v.denominator for v in entries))
    a, b, c, d = (int(v * scale) for v in entries)
    ta, tb, tc, td = (isinstance(v, Fraction) for v in entries)
    num, den = numerators(f)
    # A key is code << 1 | t, where t = 1 marks the share of a coefficient
    # that a Fraction has entered; it stays apart from the int share.
    cur = {w << 1 | isinstance(f.terms[w], Fraction): p for w, p in num.items()}
    done: dict[int, int] = {}
    for i in range(max(map(words.degree, num), default=0)):
        bit = 2 << i  # letter position i, in a key
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, p in cur.items():
            if not p:
                continue
            if key >> (i + 1) == 1:  # a word of degree i: every position is done
                done[key] = p
            elif key & bit:  # y at position i
                if c:
                    k = (key ^ bit) | tc
                    nxt[k] = get(k, 0) + c * p
                if d:
                    k = key | td
                    nxt[k] = get(k, 0) + d * p
            else:
                if a:
                    k = key | ta
                    nxt[k] = get(k, 0) + a * p
                if b:
                    k = key | bit | tb
                    nxt[k] = get(k, 0) + b * p
        cur = nxt
    done.update(cur)

    def share(key: int, p: int) -> Coeff:
        q = den * scale ** (key.bit_length() - 2)
        return Fraction(p, q) if key & 1 else p // q

    pairs = ((key >> 1, share(key, p)) for key, p in sorted(done.items()) if p)
    return Poly._of(accumulate({}, pairs))


def numerators(f: Poly) -> tuple[dict[int, int], int]:
    """f as P/D: integer numerators P and the lcm D of the denominators."""
    den = lcm(1, *(c.denominator for c in f.terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in f.terms.items()}, den


def _by_degree(terms: dict[int, Coeff]) -> dict[int, list[tuple[int, Coeff]]]:
    """Terms grouped by degree, each word given by its letter bits only."""
    out: dict[int, list[tuple[int, Coeff]]] = {}
    for w, c in terms.items():
        n = words.degree(w)
        out.setdefault(n, []).append((w ^ (1 << n), c))
    return out


def truncated_mul(f: Poly, g: Poly, trunc: int) -> Poly:
    """The product fg without its terms of degree > trunc, which are never built."""
    blocks = _by_degree(g.terms)
    terms: dict[int, Coeff] = {}
    for a, ca in f.terms.items():
        room = trunc - words.degree(a)
        for nb, block in blocks.items():
            if nb > room:
                continue
            head = a << nb
            for bits, cb in block:
                w = head | bits
                terms[w] = terms.get(w, 0) + ca * cb
    return Poly(terms)


def derive(h: Poly, x_image: Poly, y_image: Poly, trunc: int | None = None) -> Poly:
    """The derivation x -> x_image, y -> y_image of the free algebra, applied to h.

    Each letter of each word of h is replaced in turn by its image.  With
    trunc given, terms of degree > trunc are never built.
    """
    images = (_by_degree(x_image.terms), _by_degree(y_image.terms))
    lowest = min((dt for blocks in images for dt in blocks), default=0)
    terms: dict[int, Coeff] = {}
    for w, c in h.terms.items():
        n = words.degree(w)
        room = None if trunc is None else trunc - n + 1
        if room is not None and room < lowest:
            continue  # every image overshoots trunc
        for i in range(n):
            pre = w >> (i + 1)  # the letters before position i, as a code
            low = w & ((1 << i) - 1)  # the letters after it, as bits
            for dt, block in images[(w >> i) & 1].items():
                if room is not None and dt > room:
                    continue
                head = pre << dt
                for bits, tc in block:
                    nw = ((head | bits) << i) | low
                    terms[nw] = terms.get(nw, 0) + c * tc
    return Poly(terms)


def decompose_right(f: Poly) -> tuple[Poly, Poly]:
    """Split f = f_x * x + f_y * y; returns (f_x, f_y)."""
    _reject_empty(f, "decompose_right")
    fx: dict[int, Coeff] = {}
    fy: dict[int, Coeff] = {}
    for w, c in f.terms.items():
        (fy if w & 1 else fx)[w >> 1] = c
    return Poly._of(fx), Poly._of(fy)


def decompose_left(f: Poly) -> tuple[Poly, Poly]:
    """Split f = x * f^x + y * f^y; returns (f^x, f^y)."""
    _reject_empty(f, "decompose_left")
    fx: dict[int, Coeff] = {}
    fy: dict[int, Coeff] = {}
    for w, c in f.terms.items():
        n = words.degree(w)
        rest = (1 << (n - 1)) | (w & ((1 << (n - 1)) - 1))
        ((fy if (w >> (n - 1)) & 1 else fx))[rest] = c
    return Poly._of(fx), Poly._of(fy)


def _section_map(h: Poly, right: bool) -> Poly:
    """sum_i (-1)^i/i! (d/dx)^i(h) y x^i if right, else sum_i (-1)^i/i! x^i y (d/dx)^i(h).

    The sum runs on integer numerators: with h = P/D and m the top
    degree of h, the i-th summand of P is weighted by the int
    (-1)^i m!/i!, and each coefficient is divided by D m! once at the end.
    """
    if not h:
        return Poly.zero()
    num, den = numerators(h)
    m = max(map(words.degree, num))
    weight = factorial(m)
    common = den * weight
    terms: dict[int, int] = {}
    term = Poly._of(num)
    i = 0
    while term:
        x_i = words.x_power(i)
        if right:
            tail = words.concat_codes(words.Y_CODE, x_i)
            pairs = ((words.concat_codes(w, tail), c) for w, c in term.terms.items())
        else:
            head = words.concat_codes(x_i, words.Y_CODE)
            pairs = ((words.concat_codes(head, w), c) for w, c in term.terms.items())
        accumulate(terms, pairs, -weight if i & 1 else weight)
        i += 1
        weight //= i
        term = partial_x(term)
    return Poly._of({w: Fraction(c, common) for w, c in terms.items()})


def s_map(h: Poly) -> Poly:
    """Section map h -> sum_i (-1)^i/i! (d/dx)^i(h) y x^i.

    Rebuilds a Lie element f from its right factor: f = s_map(f_y)
    whenever f is Lie of degree >= 2.
    """
    return _section_map(h, right=True)


def s_prime_map(h: Poly) -> Poly:
    """Mirror section map h -> sum_i (-1)^i/i! x^i y (d/dx)^i(h).

    Rebuilds a Lie element from its left factor: f = s_prime_map(f^y).
    """
    return _section_map(h, right=False)


# -- symmetry predicates ----------------------------------------------------


def _require_homogeneous(f: Poly, op: str) -> int | None:
    if not f.is_homogeneous():
        raise ValueError(f"{op} requires a homogeneous polynomial")
    return f.degree()


def is_palindromic(f: Poly) -> bool:
    """True when f equals (-1)^(m-1) anti(f), m the degree of f."""
    m = _require_homogeneous(f, "is_palindromic")
    if m is None:
        return True
    return f == (anti(f) if (m - 1) % 2 == 0 else -anti(f))


def is_antipalindromic(f: Poly) -> bool:
    """True when f equals (-1)^m anti(f), m the degree of f."""
    m = _require_homogeneous(f, "is_antipalindromic")
    if m is None:
        return True
    return f == (anti(f) if m % 2 == 0 else -anti(f))


def is_push_invariant(f: Poly) -> bool:
    m = _require_homogeneous(f, "is_push_invariant")
    if m is None:
        return True
    return push(f) == f


def push_constant(f: Poly) -> Coeff | None:
    """The constant A with sum over Push(w) of (f|v) = A for all w != y^n.

    Sums run over the full push orbit list, repeats included.  Requires
    (f|y^n) = 0.  Returns None when f is not push-constant for any A.
    """
    n = _require_homogeneous(f, "push_constant")
    if n is None:
        return 0
    if f.terms.get(words.y_power(n), 0):
        return None
    a = None
    for orbit in words.push_orbits(n):
        if words.is_power_of_y(orbit[0]):
            continue
        total = sum(f.terms.get(v, 0) for v in orbit)
        if a is None:
            a = total
        elif total != a:
            return None
    return a


# -- serialization ----------------------------------------------------------


def coeff_to_str(c: Coeff) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_to_json(f: Poly) -> dict:
    """JSON form: degree (or null) plus terms in canonical order."""
    deg = f.degree() if f.is_homogeneous() else None
    return {
        "degree": deg,
        "terms": [
            {"word": words.str_from_code(w), "coeff": coeff_to_str(c)}
            for w, c in f.items()
        ],
    }


X = Poly.word("x")
Y = Poly.word("y")
