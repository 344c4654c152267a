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

Integer numerators.  Each certificate of the package is a linear
condition on its input f, so f = P/D and its integer numerators P
(numerators) get the same verdict, and a value linear in f is the value
on P divided by D.  The per-element certificates therefore run on P,
and convert only what they report, once, at the end (_over, _divided):
a Fraction when f has a Fraction coefficient, else the int itself,
except that a sum over no term of f is the int 0, as the plain sum of
the coefficients of f would be.  For f whose coefficients are all ints
or all Fractions, as every basis element, random element and scaled
element is, that gives the values, the types and the dict order of the
same computation on f.
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

    def items(self) -> Iterator[tuple[int, Coeff]]:
        """(code, coeff) pairs in canonical term order."""
        for w in sorted(self.terms):
            yield w, self.terms[w]

    # A longer word has a larger code (see words.py), so the degrees of a
    # polynomial are read off its smallest and largest codes.

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.terms).bit_length() - 1

    def is_homogeneous(self) -> bool:
        return not self.terms or min(self.terms).bit_length() == max(self.terms).bit_length()

    def homogeneous_part(self, n: int) -> "Poly":
        lo, hi = (1 << n, 2 << n) if n >= 0 else (0, 0)  # the codes of degree n
        return Poly._of({w: c for w, c in self.terms.items() if lo <= w < hi})

    def degrees(self) -> list[int]:
        return [b - 1 for b in sorted(set(map(int.bit_length, self.terms)))]

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
        return Poly._of(accumulate({}, concat_pairs(self, other)))

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


def concat_pairs(f: Poly, g: Poly) -> Iterator[tuple[int, Coeff]]:
    """(code of ab, (f|a)(g|b)) for each term a of f and, within it, each term b of g.

    The length and the letter bits of each b are computed once, not once
    per term of f.
    """
    blocks = []
    for b, cb in g.terms.items():
        nb = b.bit_length() - 1
        blocks.append((nb, b ^ (1 << nb), cb))
    return (((a << nb) | bits, ca * cb) for a, ca in f.terms.items() for nb, bits, cb in blocks)


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
    pairs = ((u, c) for w, c in f.terms.items() for u in words.x_deletions(w))
    return Poly._of(accumulate({}, pairs))


def subst_linear(f: Poly, x_image: Poly, y_image: Poly) -> Poly:
    """Algebra substitution x -> x_image, y -> y_image.

    Both images must be homogeneous of degree 1, so the substitution
    preserves grading.  With x -> a x + b y and y -> c x + d y it acts on
    the words of length n as the n-fold Kronecker power of the matrix
    ((a, b), (c, d)), applied as a sparse butterfly: one pass per letter
    position, in which a word with x there sends a*p to itself and b*p
    to the word with y there, a word with y sends c*p to the word with x
    there and d*p to itself, and shorter words pass through.  Only words
    reachable from f are held, keyed by their plain word codes.

    When f has a Fraction coefficient, the butterfly runs on the integer
    numerators P of f = P/D and every output coefficient is
    Fraction(p, D); otherwise it runs on the coefficients of f and each
    output coefficient is the plain sum of its shares.  Image entries
    are used as given, so a Fraction entry makes the shares on its path
    Fractions.  Terms come in ascending code order.
    """
    for g in (x_image, y_image):
        if g and (not g.is_homogeneous() or g.degree() != 1):
            raise ValueError("substitution images must be linear in x, y")
    if EMPTY in f.terms:
        raise ValueError("subst_linear is not defined on the empty word")
    a, b, c, d = (g.terms.get(w, 0) for g in (x_image, y_image) for w in (words.X_CODE, words.Y_CODE))
    fractional = _is_fractional(f)
    cur, den = numerators(f) if fractional else (f.terms, 1)
    if c == 0 and d == 1 and type(a) is type(b) is type(d) is int:
        # y is fixed: a word with y at position i, or of degree at most i,
        # keeps its share, so each pass updates the words with x there in
        # place.  Every share is an int.
        done = dict(cur)
        get = done.get
        for i in range(f.degree() or 0):
            bit = 1 << i  # letter position i, in a word code
            for w, p in [(w, p) for w, p in done.items() if p and w > bit and not w & bit]:
                done[w] = a * p
                k = w | bit
                done[k] = get(k, 0) + b * p
    else:
        done = {}
        for i in range(f.degree() or 0):
            bit = 1 << i
            nxt: dict[int, Coeff] = {}
            get = nxt.get
            for w, p in cur.items():
                if not p:
                    continue
                if w >> i == 1:  # a word of degree i: every position is done
                    done[w] = p
                elif w & bit:  # y at position i
                    if c:
                        k = w ^ bit
                        nxt[k] = get(k, 0) + c * p
                    if d:
                        nxt[w] = get(w, 0) + d * p
                else:
                    if a:
                        nxt[w] = get(w, 0) + a * p
                    if b:
                        k = w | bit
                        nxt[k] = get(k, 0) + b * p
            cur = nxt
        done.update(cur)
    pairs = sorted((w, p) for w, p in done.items() if p)
    return Poly._of({w: Fraction(p, den) for w, p in pairs} if fractional else dict(pairs))


def numerators(f: Poly) -> tuple[dict[int, int], int]:
    """f as P/D: integer numerators P and the lcm D of the denominators.

    P is a fresh dict; when every coefficient is an int it is a copy of f.
    """
    if all(type(c) is int for c in f.terms.values()):
        return dict(f.terms), 1
    den = lcm(1, *(c.denominator for c in f.terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in f.terms.items()}, den


def _numerator_poly(f: Poly) -> Poly:
    """The integer numerators P of f = P/D, as a polynomial: f itself when
    every coefficient is an int."""
    if all(type(c) is int for c in f.terms.values()):
        return f
    return Poly._of(numerators(f)[0])


def _is_fractional(f: Terms) -> bool:
    """Whether f has a Fraction coefficient."""
    return any(type(c) is Fraction for c in f.terms.values())


def _over(c: Coeff, den: int, fractional: bool) -> Coeff:
    """A value c computed on the numerators P of f = P/den, divided by den:
    Fraction(c, den) when f has a Fraction coefficient, else c (den is 1)."""
    return Fraction(c, den) if fractional else c


def _divided(p: Terms, den: int, fractional: bool) -> Terms:
    """p / den, each coefficient divided as by _over."""
    if not fractional:
        return p
    return p._like({k: Fraction(c, den) for k, c in p.terms.items()})


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


def _section_numerators(h: Poly, right: bool) -> tuple[dict[int, int], int]:
    """s_map(h) if right, else s_prime_map(h), as integer numerators P over
    one denominator D: the map is P/D.

    With h = Q/E and m the top degree of h, the i-th summand of Q is
    weighted by the int (-1)^i m!/i!, and D = E m!.  The summands have
    no word in common, since the factor y x^i (or x^i y) ends (or starts)
    each word of the i-th one, so P holds them in order of i, each in
    the order of (d/dx)^i(Q).
    """
    if not h:
        return {}, 1
    num, den = numerators(h)
    m = max(num).bit_length() - 1
    weight = factorial(m)
    common = den * weight
    terms: dict[int, int] = {}
    term = Poly._of(num)
    i = 0
    while term:
        c = -weight if i & 1 else weight
        if right:  # w y x^i
            terms.update({(w << (i + 1)) | (1 << i): c * v for w, v in term.terms.items()})
        else:  # x^i y w
            terms.update({w | (1 << (w.bit_length() + i)): c * v for w, v in term.terms.items()})
        i += 1
        weight //= i
        term = partial_x(term)
    return terms, common


def _section_map(h: Poly, right: bool) -> Poly:
    """sum_i (-1)^i/i! (d/dx)^i(h) y x^i if right, else sum_i (-1)^i/i! x^i y (d/dx)^i(h)."""
    num, den = _section_numerators(h, right)
    return Poly._of({w: Fraction(c, den) for w, c in num.items()})


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


def _mirrored(f: Poly, op: str, word_map, sign: int) -> bool:
    """True when (f|word_map(w)) = sign (f|w) for every word w of f.

    word_map permutes the words of each length, so this is f = sign
    word_map(f), tested term by term up to the first mismatch.
    """
    _reject_empty(f, op)
    get = f.terms.get
    return all(get(word_map(w), 0) == sign * c for w, c in f.terms.items())


def is_palindromic(f: Poly) -> bool:
    """True when f equals (-1)^(m-1) anti(f), m the degree of f."""
    m = _require_homogeneous(f, "is_palindromic")
    if m is None:
        return True
    return _mirrored(f, "anti", words.anti_code, 1 if (m - 1) % 2 == 0 else -1)


def is_antipalindromic(f: Poly) -> bool:
    """True when f equals (-1)^m anti(f), m the degree of f."""
    m = _require_homogeneous(f, "is_antipalindromic")
    if m is None:
        return True
    return _mirrored(f, "anti", words.anti_code, 1 if m % 2 == 0 else -1)


def is_push_invariant(f: Poly) -> bool:
    m = _require_homogeneous(f, "is_push_invariant")
    if m is None:
        return True
    return _mirrored(f, "push", words.push_code, 1)


def push_constant(f: Poly) -> Coeff | None:
    """The constant A with sum over Push(w) of (f|v) = A for all w != y^n.

    Sums run over the full push orbit list, repeats included.  Requires
    (f|y^n) = 0.  Returns None when f is not push-constant for any A.
    The sums run on the integer numerators of f (see _push_constant).
    """
    num, den = numerators(f)
    return _push_constant(Poly._of(num), den, _is_fractional(f))


def _push_constant(p: Poly, den: int, fractional: bool) -> Coeff | None:
    """push_constant(f) from the integer numerators p of f = p/den.

    Push-constancy is scale-invariant and A is linear, so A is the
    constant of p over den, converted by _over; a first orbit that
    misses p gives the int 0.
    """
    n = _require_homogeneous(p, "push_constant")
    if n is None:
        return 0
    get = p.terms.get
    if get(words.y_power(n), 0):
        return None
    a = None
    for orbit in words.push_orbits(n):
        if words.is_power_of_y(orbit[0]):
            continue
        total = sum(get(v, 0) for v in orbit)
        if a is None:
            a = total
            met = any(v in p.terms for v in orbit)
        elif total != a:
            return None
    return a if a is None else _over(a, den, fractional and met)


# -- serialization ----------------------------------------------------------


def coeff_to_str(c: Coeff) -> str:
    if type(c) is int or type(c) is Fraction:
        return str(c)  # n, or n/d in lowest terms
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
