"""Binary words in the letters x, y, packed into machine integers.

A word of length n is stored as ``code = (1 << n) | bits`` where the
first letter sits in the most significant bit of the n-bit field and
x = 0, y = 1.  The length prefix makes the code unique, and plain
integer comparison of codes is exactly degree-then-lexicographic order
with x < y, which is the canonical term order used everywhere in this
package.

The empty word (code 1) is allowed only as the multiplicative unit of
truncated series; the structural operations below (reversal, push,
exponent decomposition, ...) reject it.

The per-code maps exponents_of, x_deletions, anti_code and push_code
are pure functions of the code and are memoized.  Each cache holds
fewer than 2^(d+1) entries when no word it sees is longer than d: 2^14
at MAX_WEIGHT = 13 and 2^17 at groupexp.MAX_TRUNCATION = 16.  Errors are
not cached, so the empty word raises on every call.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Union

from . import CrossCheckError

EMPTY = 1  # code of the empty word
X_CODE = 2  # the one-letter word x
Y_CODE = 3  # the one-letter word y

WordLike = Union["Word", str, int]


def degree(code: int) -> int:
    """Length of the word with the given code."""
    return code.bit_length() - 1


def depth(code: int) -> int:
    """Number of y letters.

    >>> depth(code_from_str("xyxyy"))
    3
    """
    return (code & ~(1 << degree(code))).bit_count()


def code_from_str(s: str) -> int:
    code = 1
    for ch in s:
        if ch == "x":
            code <<= 1
        elif ch == "y":
            code = (code << 1) | 1
        else:
            raise ValueError(f"letters must be 'x' or 'y', got {ch!r}")
    return code


_LETTERS = str.maketrans("01", "xy")


def str_from_code(code: int) -> str:
    return bin(code)[3:].translate(_LETTERS)  # the bits below the leading 1


def as_code(w: WordLike) -> int:
    """Normalize a word given as Word, string or raw code to its code."""
    if isinstance(w, Word):
        return w.code
    if isinstance(w, str):
        return code_from_str(w)
    if isinstance(w, int):
        if w < 1:
            raise ValueError(f"not a word code: {w}")
        return w
    raise TypeError(f"cannot interpret {w!r} as a word")


def letters_of(code: int) -> Iterator[int]:
    """Yield the letters of the word as bits (x=0, y=1), left to right."""
    n = degree(code)
    for i in range(n - 1, -1, -1):
        yield (code >> i) & 1


def concat_codes(a: int, b: int) -> int:
    nb = degree(b)
    return (a << nb) | (b ^ (1 << nb))


def x_power(k: int) -> int:
    return 1 << k


def y_power(k: int) -> int:
    return (1 << (k + 1)) - 1


def ends_in_y(code: int) -> bool:
    return code != EMPTY and bool(code & 1)


def starts_with_y(code: int) -> bool:
    n = degree(code)
    return n > 0 and bool((code >> (n - 1)) & 1)


def is_power_of_y(code: int) -> bool:
    """True for y^k with k >= 1."""
    return code > 1 and code == (1 << (degree(code) + 1)) - 1


def all_words(n: int) -> range:
    """Codes of all 2**n words of length n, in canonical order."""
    return range(1 << n, 2 << n)


def _require_nonempty(code: int) -> int:
    if code == EMPTY:
        raise ValueError("operation undefined on the empty word")
    if code < 1:
        raise ValueError(f"not a word code: {code}")
    return code


@cache
def exponents_of(code: int) -> tuple[int, ...]:
    """Exponent tuple (a_0, ..., a_r) of w = x^a0 y x^a1 y ... y x^ar.

    >>> exponents_of(code_from_str("xxyxy"))
    (2, 1, 0)
    """
    _require_nonempty(code)
    exps = [0]
    for bit in letters_of(code):
        if bit:
            exps.append(0)
        else:
            exps[-1] += 1
    return tuple(exps)


def code_from_exponents(exps: Iterable[int]) -> int:
    code = 1
    first = True
    for a in exps:
        if not first:
            code = (code << 1) | 1
        code <<= a
        first = False
    if first:
        raise ValueError("exponent tuple must be nonempty")
    return code


@cache
def x_deletions(code: int) -> tuple[int, ...]:
    """Codes of the words left by deleting one x, for each x from the last
    letter to the first, repeats included.

    >>> [str_from_code(c) for c in x_deletions(code_from_str("xyxx"))]
    ['xyx', 'xyx', 'yxx']
    """
    return tuple(
        ((code >> (i + 1)) << i) | (code & ((1 << i) - 1))
        for i in range(degree(code))
        if not (code >> i) & 1  # x at bit position i
    )


@cache
def anti_code(code: int) -> int:
    """Code of the reversed word."""
    _require_nonempty(code)
    n = degree(code)
    out = 1
    for i in range(n):
        out = (out << 1) | ((code >> i) & 1)
    return out


@cache
def push_code(code: int) -> int:
    """Cyclic rotation on exponent tuples: (a_0,...,a_r) -> (a_r,a_0,...,a_{r-1}).

    For a word without y this is the identity.

    >>> str_from_code(push_code(code_from_str("xxyxy")))
    'yxxyx'
    >>> str_from_code(push_code(code_from_str("xyy")))
    'yxy'
    """
    exps = exponents_of(code)
    return code_from_exponents(exps[-1:] + exps[:-1])


def push_orbit(code: int) -> list[int]:
    """The r+1 successive push iterates of w, repeats included.

    r is the number of y letters; the orbit of a depth-0 word is [w].
    """
    _require_nonempty(code)
    out = [code]
    for _ in range(depth(code)):
        out.append(push_code(out[-1]))
    if push_code(out[-1]) != code:
        raise CrossCheckError(f"the push orbit of word code {code} does not close")
    return out


def push_orbits(m: int) -> Iterator[list[int]]:
    """Each push orbit of the degree-m words once, in the order of its first word."""
    seen: set[int] = set()
    for w in all_words(m):
        if w not in seen:
            orbit = push_orbit(w)
            seen.update(orbit)
            yield orbit


def cyclic_min(code: int) -> int:
    """Smallest code among the letter rotations of the word (cyclic key)."""
    _require_nonempty(code)
    n = degree(code)
    bits = code ^ (1 << n)
    mask = (1 << n) - 1
    best = bits
    for k in range(1, n):
        rot = ((bits << k) | (bits >> (n - k))) & mask
        if rot < best:
            best = rot
    return best | (1 << n)


class Word:
    """Immutable word in x, y; compares in degree-then-lex order.

    >>> Word("xy") < Word("yx") < Word("xxx")
    True
    """

    __slots__ = ("code",)

    def __init__(self, w: WordLike):
        object.__setattr__(self, "code", as_code(w))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.code,)

    @property
    def degree(self) -> int:
        return degree(self.code)

    @property
    def depth(self) -> int:
        return depth(self.code)

    def exponents(self) -> tuple[int, ...]:
        return exponents_of(self.code)

    def anti(self) -> "Word":
        return Word(anti_code(self.code))

    def push(self) -> "Word":
        return Word(push_code(self.code))

    def push_orbit(self) -> list["Word"]:
        return [Word(c) for c in push_orbit(self.code)]

    def __mul__(self, other: "Word") -> "Word":
        return Word(concat_codes(self.code, as_code(other)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: "Word") -> bool:
        return self.code < as_code(other)

    def __le__(self, other: "Word") -> bool:
        return self.code <= as_code(other)

    def __len__(self) -> int:
        return degree(self.code)

    def __str__(self) -> str:
        return str_from_code(self.code)

    def __repr__(self) -> str:
        return f"Word({str_from_code(self.code)!r})"
