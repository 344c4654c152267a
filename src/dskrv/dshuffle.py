"""The double shuffle Lie algebra: products, membership, bases.

A homogeneous Lie element f of degree n >= 3 belongs to ds when
(f | st(u, v)) = 0 for every pair of words u, v ending in y that are
not both powers of y, where st is the stuffle product on words built
from the blocks y_i = x^(i-1) y.  Such words are encoded here as
composition tuples (i_1, ..., i_k).

ds_basis computes the degree-n part exactly.  Stuffle constraints are
expressed on Lyndon coordinates of the free Lie algebra, and rows are
built only for a seeded sample of the pairs.  The kernel of any subset
of the rows contains ds_n, so the certified multi-modular nullspace of
linalg.nullspace (exact rationals, checked against the rows it is
given) bounds ds_n from above.  Each kernel basis vector is then swept
against every defining relation, as in is_ds, and the witness pair of
each one that fails is added as a row, until all of them pass; the
kernel is then ds_n itself.  Its reduced echelon basis is unique, so
it does not depend on the sample, and it is normalized with a fixed
scaling convention.

Every identity that pairs f with products, (f | st(u, v)) = 0 in
is_ds and group-likeness in groupexp, is read off the dual coproduct
of f by coproduct_sweep; no product is built.  The coproduct is dense,
one homogeneous part of degree m at a time, on lists indexed by word
bits, where each step moves one letter of every word at once onto u or
v by strided slicing.  The shuffle coproduct (shuffle_buckets) holds
lists of length 2^m.  The stuffle coproduct (stuffle_buckets) holds
only its y-ending support: words u, v ending in y, indexed by their
bits above the final y, so a bucket of degree m has 2^(m-2) entries
when u and v are nonempty.  coproduct_sweep checks each bucket row u,
one contiguous slice, against f(u) f(v); it counts a missing bucket
without reading it when one of its degrees has no word in f, and only
tests a row of f(u) = 0 for a nonzero entry.
The cached stuffles _st build the sampled constraint rows of ds_basis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add
from types import MappingProxyType

from . import CrossCheckError, linalg, words
from .lie import bracket, from_coords, is_lie, lyndon_basis
from .poly import (
    Coeff,
    Poly,
    Y,
    _divided,
    _is_fractional,
    _over,
    decompose_right,
    derive,
    numerators,
    pi_y,
    poly_to_json,
)
from .words import EMPTY, WordLike, as_code

# -- shuffle -----------------------------------------------------------------

_sh_cache: dict[tuple[int, int], dict[int, int]] = {}


def _strip_first(code: int) -> tuple[int, int]:
    """(first letter bit, code of the remaining suffix)."""
    n = words.degree(code)
    return (code >> (n - 1)) & 1, (1 << (n - 1)) | (code & ((1 << (n - 1)) - 1))


def _sh(u: int, v: int) -> dict[int, int]:
    """Shuffle of two word codes as {word: multiplicity}; cached, so never mutate it."""
    if u == EMPTY:
        return {v: 1}
    if v == EMPTY:
        return {u: 1}
    if u > v:
        u, v = v, u
    cached = _sh_cache.get((u, v))
    if cached is not None:
        return cached
    a, ru = _strip_first(u)
    b, rv = _strip_first(v)
    # Both sub-shuffles hold words of one degree m; prepending the letter
    # t to such a word adds (1 + t) << m to its code.
    m = words.degree(u) + words.degree(v) - 1
    out: dict[int, int] = {}
    for first, rest in ((a, _sh(ru, v)), (b, _sh(u, rv))):
        shift = (1 + first) << m
        for w, c in rest.items():
            nw = w + shift
            out[nw] = out.get(nw, 0) + c
    _sh_cache[(u, v)] = out
    return out


def shuffle(u: WordLike, v: WordLike) -> Poly:
    """Shuffle product of two words (empty words allowed).

    No library code calls it: the coproduct checks use shuffle_buckets.
    It stays public because the benchmark reads it by name: its tracer
    wraps dshuffle.shuffle, and its cache-size report reads _sh_cache.
    """
    return Poly._of(dict(_sh(as_code(u), as_code(v))))


# -- stuffle -----------------------------------------------------------------


def composition_of(code: int) -> tuple[int, ...]:
    """Composition (i_1,...,i_k) of a word y_{i_1}...y_{i_k} ending in y."""
    if code == EMPTY:
        return ()
    if not words.ends_in_y(code):
        raise ValueError("stuffle operands must end in y")
    exps = words.exponents_of(code)
    return tuple(a + 1 for a in exps[:-1])


def word_of_composition(comp: tuple[int, ...]) -> int:
    code = 1
    for i in comp:
        code = (code << i) | 1
    return code


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n into positive parts, lexicographically."""
    if n == 0:
        return [()]
    out = []

    def rec(rest: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(1, rest + 1):
            rec(rest - part, acc + (part,))

    rec(n, ())
    return sorted(out)


_st_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}


def _st(a: tuple[int, ...], b: tuple[int, ...]) -> dict[int, int]:
    """Stuffle of two compositions as {word: multiplicity}; cached, so never mutate it."""
    if not a:
        return {word_of_composition(b): 1}
    if not b:
        return {word_of_composition(a): 1}
    if a > b:
        a, b = b, a
    cached = _st_cache.get((a, b))
    if cached is not None:
        return cached
    # Prepending the block x^(h-1) y to a word of weight m turns its
    # length prefix 1 << m into the block's y and adds a new prefix at
    # m + h, which is the total weight n in each of the three branches.
    shift = 1 << (sum(a) + sum(b))
    out: dict[int, int] = {}
    for rec in (_st(a[1:], b), _st(a, b[1:]), _st(a[1:], b[1:])):
        for w, c in rec.items():
            nw = w + shift
            out[nw] = out.get(nw, 0) + c
    _st_cache[(a, b)] = out
    return out


def stuffle(u: WordLike, v: WordLike) -> Poly:
    """Stuffle product of two words ending in y (empty words allowed)."""
    return Poly._of(dict(_st(composition_of(as_code(u)), composition_of(as_code(v)))))


# -- the dual coproducts ---------------------------------------------------------


def _interleave(even: list, odd: list, block: int) -> list:
    """even and odd cut into runs of length block, alternated: e0 o0 e1 o1 ..."""
    out = []
    for k in range(0, len(even), block):
        out += even[k : k + block]
        out += odd[k : k + block]
    return out


def _shuffle_buckets(row: list, m: int) -> dict[tuple[int, int], list]:
    """The shuffle coproduct of one homogeneous degree-m part.

    Every word w splits into (u, v) by sending each letter to u or to v.
    The letters move one at a time, last first, out of the prefix P
    still to come, onto the front of u or of v.  At depth d = deg P the
    layer holds one list of length 2^m per bucket (deg u, deg v) = (a, b),
    indexed by the bits [u | v | P] with the last letter of P lowest, so
    that list[i] sums the coefficients of every word in state i.  A step
    moves bit 0 of every index at once.  Onto u it becomes the top bit,
    so the image of src is src[0::2] + src[1::2]; onto v it lands above
    the b bits of v and the d bits left in P, so the two strided halves
    alternate in runs of 2^(b+d).  A bucket with a > b + d can never
    reach deg u <= deg v and is dropped, so the last layer holds the
    pairs with a <= b, indexed by [u | v].
    """
    layer = {(0, 0): row}
    for d in range(m - 1, -1, -1):
        moved: dict[tuple[int, int], list] = {}
        for (a, b), src in layer.items():
            even, odd = src[0::2], src[1::2]
            targets = [((a, b + 1), _interleave(even, odd, 1 << (b + d)))]
            if a < b + d:
                targets.append(((a + 1, b), even + odd))
            for key, values in targets:
                have = moved.get(key)
                moved[key] = values if have is None else list(map(add, have, values))
        layer = moved
    return layer


def _stuffle_buckets(row: list, m: int) -> dict[tuple[int, int], list]:
    """The stuffle coproduct of one homogeneous degree-m part of words ending in y.

    Delta(y_j) = sum over i + k = j of y_i (x) y_k sends the first i
    letters of the block x^(j-1) y to u, the last of them written as y,
    and the other k letters to v unchanged.  So u and v end in y, and a
    state is indexed, as in _shuffle_buckets, by the bits [u | v | P]
    without the final y of u or of v: row holds the 2^(m-1) words by
    their bits above the final y, and bucket (a, b) ends with
    2^(max(a-1, 0) + max(b-1, 0)) entries.  The letters move last first
    through a transducer with two states per bucket.  In "right" every
    letter of the current block so far went to v: its next x goes to v,
    or to u as the block's last left letter, written y.  In "left" the
    block has sent a letter to u, so its remaining x's go to u.  A y
    starts the block before, from either state, and goes to v (state
    right) or to u (state left).  The first letter onto an empty u or v
    is its final y and adds no bit.  The final y of the word starts the
    run, on v in state right or, when m > 1, on u in state left; so a
    bucket has state right exactly when b >= 1 and state left exactly
    when a >= 1, and an absent state is None.
    """
    if not m:
        return {(0, 0): row}
    layer = {(0, 1): (row, None)}  # bucket: (state right, state left)
    if m > 1:
        layer[(1, 0)] = (None, row)
    for d in range(m - 2, -1, -1):
        moved: dict[tuple[int, int], list] = {}
        for (a, b), (right, left) in layer.items():
            if right is None:
                x_right, y_any = None, left[1::2]
            else:
                x_right, y_any = right[0::2], right[1::2]
                if left is not None:
                    y_any = list(map(add, y_any, left[1::2]))
            onto_v = y_any if x_right is None else _interleave(x_right, y_any, 1 << (b - 1 + d))
            moved.setdefault((a, b + 1), [None, None])[0] = onto_v
            if a < b + d:
                onto_u = y_any if x_right is None else list(map(add, x_right, y_any))
                if left is not None:
                    onto_u = left[0::2] + onto_u
                moved.setdefault((a + 1, b), [None, None])[1] = onto_u
        layer = moved
    return {
        key: right if left is None else left if right is None else list(map(add, right, left))
        for key, (right, left) in layer.items()
    }


def _by_degree(
    series: dict[int, Coeff], coproduct_of_part, low: int
) -> dict[tuple[int, int], list]:
    """The dense coproduct of series, one homogeneous part at a time; the
    part of degree m is a list indexed by the bits of its words above
    their low bits ((code - 2^m) >> low), of length 2^(m - low) (1 at m = 0)."""
    parts: dict[int, list] = {}
    for w, c in series.items():
        if c:
            m = w.bit_length() - 1
            if m not in parts:
                parts[m] = [0] * (1 << max(m - low, 0))
            parts[m][(w - (1 << m)) >> low] = c
    out = {}
    for m, row in parts.items():
        out.update(coproduct_of_part(row, m))
    return out


def shuffle_buckets(series: dict[int, Coeff]) -> dict[tuple[int, int], list]:
    """The shuffle coproduct of series = {word: c}, dense.

    Maps each (deg u, deg v) with deg u <= deg v to a list indexed by
    the bits of u above the bits of v, whose entry is (f | sh(u, v)).
    A missing bucket is all zeros.
    """
    return _by_degree(series, _shuffle_buckets, 0)


def stuffle_buckets(series: dict[int, Coeff]) -> dict[tuple[int, int], list]:
    """The stuffle coproduct of a series of words ending in y, dense on
    its y-ending support.

    Only pairs of words u, v ending in y (or empty) can be nonzero, so
    bucket (deg u, deg v), deg u <= deg v, is indexed by the bits of u
    above its final y over the bits of v above its final y, with
    2^(max(deg u - 1, 0) + max(deg v - 1, 0)) entries (f | st(u, v)).
    A missing bucket is all zeros.
    """
    if any(c and not w & 1 for w, c in series.items()):
        raise ValueError("the stuffle coproduct needs words ending in y")
    return _by_degree(series, _stuffle_buckets, 1)


def coproduct_sweep(
    buckets, num: dict[int, int], den: int, n: int, y_ending: bool = False
) -> dict:
    """Certify den * Delta(u, v) == num(u) num(v) for the series num/den.

    buckets is its dense coproduct, shuffle_buckets or (with y_ending)
    stuffle_buckets, a missing bucket counting as zeros.  The pairs
    (u, v) of nonempty words (ending in y, with y_ending) with
    1 <= deg u <= deg v and deg u + deg v <= n, by deg u, deg v, u, v,
    with v >= u when the degrees agree, are checked a bucket row u at a
    time: the row is contiguous, one entry per word v of degree deg v,
    and is compared with num(u) times their coefficients.  A row with
    num(u) = 0 only has to be zero, and a missing bucket whose degree
    deg u or deg v has no word in num is counted without being read.
    Returns the verdict, the witness pair of the first failure,
    and the number of pairs checked before it (all, on a pass).
    """
    start, step = (1, 2) if y_ending else (0, 1)
    coeffs = {d: [num.get(w, 0) for w in words.all_words(d)[start::step]] for d in range(n)}
    pairs = 0
    for a in range(1, n // 2 + 1):
        for b in range(a, n - a + 1):
            width = len(coeffs[b])  # the words v, and the entries of a row
            values = buckets.get((a, b))
            if values is None:
                if not (any(coeffs[a]) and any(coeffs[b])):
                    rows = len(coeffs[a])
                    pairs += rows * (rows + 1) // 2 if a == b else rows * width
                    continue
                values = [0] * (len(coeffs[a]) * width)
            for i, left in enumerate(coeffs[a]):
                skip = i if a == b else 0
                found = values[i * width + skip : (i + 1) * width]
                if left:
                    expected = [left * c for c in coeffs[b][skip:]]
                    if [den * c for c in found] == expected:
                        pairs += len(found)
                        continue
                    j = next(j for j, c in enumerate(found) if den * c != expected[j])
                elif any(found):
                    j = next(j for j, c in enumerate(found) if c)
                else:
                    pairs += len(found)
                    continue
                u = (1 << a) | (start + i * step)
                v = (1 << b) | (start + (skip + j) * step)
                return {
                    "verdict": False,
                    "witness": (words.str_from_code(u), words.str_from_code(v)),
                    "pairs": pairs + j,
                }
    return {"verdict": True, "witness": None, "pairs": pairs}


# -- membership --------------------------------------------------------------


def stuffle_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Defining constraint pairs at weight n, as composition pairs.

    Unordered pairs of nonempty words ending in y with weights summing
    to n, excluding pairs where both words are powers of y.
    """
    out = []
    for k in range(1, n // 2 + 1):
        right = compositions(n - k)
        for a in compositions(k):
            for b in right:
                # parts are positive, so len(a) + len(b) == n exactly when every part is 1
                if (2 * k < n or a <= b) and len(a) + len(b) != n:
                    out.append((a, b))
    return out


def starred_part(f: Poly) -> Poly:
    """The y-projection with its power-of-y correction term.

    For homogeneous f of degree n this is
    pi_y(f) + (-1)^(n-1)/n * (f|x^(n-1)y) * y^n, the series whose
    stuffle relations hold for all pairs of words ending in y exactly
    when those of f hold for the non-power pairs.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous():
        raise ValueError("starred_part requires a nonzero homogeneous polynomial")
    lead = f.coeff((1 << n) | 1)  # x^(n-1) y
    sign = 1 if (n - 1) % 2 == 0 else -1
    corr = Poly.word(words.y_power(n), Fraction(sign * lead, n)) if lead else Poly.zero()
    return pi_y(f) + corr


def _stuffle_sweep(f: Poly, n: int) -> dict:
    """The defining stuffle relations of a degree-n f, swept as in coproduct_sweep.

    The pairings (f | st(u, v)) are read off the stuffle coproduct of
    pi_y(f) with its (y^a, y^b) entries zeroed, since those pairs are no
    defining relation; the witness of a failure is a pair of
    stuffle_pairs(n), as words.
    """
    num, den = numerators(pi_y(f))
    buckets = stuffle_buckets(num)
    for values in buckets.values():
        values[-1] = 0  # the pair (y^a, y^b)
    return coproduct_sweep(buckets, num, den, n, y_ending=True)


def is_ds(f: Poly, strict: bool = False) -> bool:
    """Exact membership in the double shuffle Lie algebra.

    Requires homogeneous input of degree >= 3.  The pairings
    (f | st(u, v)) come from the stuffle coproduct of pi_y(f) without
    its (y^a, y^b) entries.  With strict=True the verdict is recomputed
    from the corrected series starred_part(f) against all stuffle pairs
    (powers of y included), and CrossCheckError is raised if the two
    disagree.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous():
        raise ValueError("is_ds requires a nonzero homogeneous polynomial")
    if n < 3:
        raise ValueError("double shuffle elements have degree >= 3")
    if not is_lie(f):
        return False
    verdict = _stuffle_sweep(f, n)["verdict"]
    if strict:
        num, den = numerators(starred_part(f))
        star = coproduct_sweep(stuffle_buckets(num), num, den, n, y_ending=True)
        if star["verdict"] != verdict:
            raise CrossCheckError(
                "corrected-series stuffle check disagrees with the defining one"
            )
    return verdict


# -- derivations and the Poisson bracket -------------------------------------


def d_f(f: Poly, g: Poly, trunc: int | None = None) -> Poly:
    """The derivation sending x to 0 and y to [y, f], applied to g.

    With trunc given, terms of degree > trunc are never built.
    """
    return derive(g, Poly.zero(), bracket(Y, f), trunc)


def poisson(f: Poly, g: Poly) -> Poly:
    """Poisson (Ihara) bracket {f, g} = [f, g] + d_f(g) - d_g(f).

    The bracket is bilinear: it is taken on the integer numerators of
    f = P/D and g = Q/E and divided by DE once (poly._divided).
    """
    (p, dp), (q, dq) = numerators(f), numerators(g)
    p, q = Poly._of(p), Poly._of(q)
    br = bracket(p, q) + d_f(p, q) - d_f(q, p)
    return _divided(br, dp * dq, _is_fractional(f) or _is_fractional(g))


# -- basis computation --------------------------------------------------------


def constraint_rows(n: int, pairs: list | None = None) -> list[list[int]]:
    """The weight-n stuffle constraints on Lyndon coordinates.

    One integer row per composition pair, of stuffle_pairs(n) in order
    unless pairs is given: entry j is the pairing of that stuffle with
    the j-th Lyndon basis expansion.
    """
    lb = lyndon_basis(n)
    d = lb.dimension
    index: dict[int, list[tuple[int, Coeff]]] = {}
    for j, expansion in enumerate(lb.expansions):
        for w, c in expansion.terms.items():
            if words.ends_in_y(w):
                index.setdefault(w, []).append((j, c))
    rows = []
    for a, b in stuffle_pairs(n) if pairs is None else pairs:
        row = [0] * d
        for w, c in _st(a, b).items():
            for j, ec in index.get(w, ()):
                row[j] += c * ec
        rows.append(row)
    return rows


def _witness_pair(witness: tuple[str, str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The composition pair of a sweep witness (u, v), ordered as in stuffle_pairs."""
    a, b = (composition_of(words.code_from_str(w)) for w in witness)
    return (b, a) if sum(a) == sum(b) and a > b else (a, b)


def _refine(n: int, pairs: list) -> tuple[list[Poly], list]:
    """The kernel of the stuffle rows of pairs, cut down to ds_n by the sweep.

    Each round takes the certified nullspace of the rows so far and runs
    the defining stuffle sweep on every kernel basis vector; the witness
    pair of each vector that fails becomes a new row, which that vector
    does not annihilate, so the kernel shrinks.  The kernel of any set of
    stuffle rows contains ds_n, so once every basis vector passes the
    sweep the kernel is ds_n.  Returns its reduced echelon basis, as Lie
    elements, and the pairs whose rows were built: pairs, then the
    witnesses in the order they were added.  Only the new rows are built
    in each round.
    """
    d = lyndon_basis(n).dimension
    pairs = list(pairs)
    rows = constraint_rows(n, pairs)
    while True:
        kernel = [from_coords(vec, n) for vec in linalg.nullspace(rows, d)]
        new = []
        for f in kernel:
            sweep = _stuffle_sweep(f, n)
            if not sweep["verdict"]:
                pair = _witness_pair(sweep["witness"])
                if pair not in new:
                    new.append(pair)
        if not new:
            return kernel, pairs
        pairs += new
        rows += constraint_rows(n, new)


class BasisResult:
    """Exact basis of the weight-n part of ds, with audit data.

    ds_basis caches one result per weight and hands it to every caller,
    so its attributes cannot be reassigned, the basis is a tuple, and
    constraint_stats and certificates are read-only mappings.
    """

    __slots__ = ("weight", "dimension", "basis", "constraint_stats", "certificates")

    def __init__(self, weight, dimension, basis, constraint_stats, certificates):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "constraint_stats", MappingProxyType(dict(constraint_stats)))
        object.__setattr__(self, "certificates", MappingProxyType(dict(certificates)))

    def __setattr__(self, name, value):
        raise AttributeError("BasisResult is immutable")

    def __reduce__(self):
        return BasisResult, (
            self.weight,
            self.dimension,
            self.basis,
            dict(self.constraint_stats),
            dict(self.certificates),
        )

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "dimension": self.dimension,
            "basis": [poly_to_json(f) for f in self.basis],
            "constraint_stats": dict(self.constraint_stats),
            "certificates": dict(self.certificates),
        }


_basis_cache: dict[int, BasisResult] = {}

MAX_WEIGHT = 13

# ds_basis starts from the rows of d + _SAMPLE_EXTRA stuffle pairs, drawn
# with random.Random(_SAMPLE_SEED); they affect only the speed.
_SAMPLE_EXTRA = 64
_SAMPLE_SEED = 1


def ds_basis(n: int) -> BasisResult:
    """Basis of ds at weight n by exact nullspace of sampled stuffle constraints.

    The rows of a seeded sample of d + _SAMPLE_EXTRA pairs of
    stuffle_pairs(n), d = dim Lie_n, are refined by _refine: their
    kernel is an upper bound for ds_n, and the witnesses of the stuffle
    sweep are added as rows until every kernel basis vector passes it.
    Every defining relation is thus checked on the result, which is ds_n
    itself.  The sample holds every pair of two depth-one words, and it
    is all of stuffle_pairs(n), in order, when there are no more pairs
    than its size.
    Basis vectors are in reduced echelon form over Lyndon coordinates
    (first nonzero coordinate 1), unique for the space; for odd n a
    vector with nonzero coefficient on x^(n-1)y is rescaled so that
    coefficient is 1.
    """
    if not 3 <= n <= MAX_WEIGHT:
        raise ValueError(f"weight must be between 3 and {MAX_WEIGHT}, got {n}")
    if n in _basis_cache:
        return _basis_cache[n]

    d = lyndon_basis(n).dimension
    pairs = stuffle_pairs(n)
    sample = pairs
    if len(pairs) > d + _SAMPLE_EXTRA:
        # The pairs of two depth-one words are the only relations that see
        # the coefficient of x^(n-1) y; a sample without them often needs a
        # second round for it.
        lead = [i for i, (a, b) in enumerate(pairs) if len(a) == len(b) == 1]
        rest = [i for i, (a, b) in enumerate(pairs) if len(a) + len(b) > 2]
        drawn = random.Random(_SAMPLE_SEED).sample(rest, d + _SAMPLE_EXTRA - len(lead))
        sample = [pairs[i] for i in sorted(lead + drawn)]
    kernel, _ = _refine(n, sample)
    lead_word = (1 << n) | 1  # x^(n-1) y
    basis = []
    for f in kernel:
        a = f.coeff(lead_word)
        if n % 2 == 1 and a:
            f = f.scale(Fraction(1, 1) / a)
        basis.append(f)

    # is_ds peels each element into the Lyndon basis before either sweep,
    # so when it passes the elements are Lie and need no second peel.
    ds_ok = all(is_ds(f, strict=True) for f in basis)
    certificates = {
        "elements_pass_is_ds": ds_ok,
        "elements_are_lie": ds_ok or all(is_lie(f) for f in basis),
        "lead_coefficient": tuple(str(f.coeff(lead_word)) for f in basis),
        "even_weight_lead_vanishes": (
            all(f.coeff(lead_word) == 0 for f in basis) if n % 2 == 0 else None
        ),
    }
    stats = {
        "rows": len(pairs),
        "cols": d,
        "rank": d - len(basis),
    }
    result = BasisResult(n, len(basis), basis, stats, certificates)
    _basis_cache[n] = result
    return result


# -- combinatorial properties of double shuffle elements -----------------------


def signed_push_sums_check(f: Poly) -> dict:
    """Check the signed push-sum property of f_y.

    With A = (f | x^(n-1) y), every double shuffle element of degree n
    satisfies (f_y | y^(n-1)) = 0 and, for each degree n-1 word
    w != y^(n-1) of depth r,

        sum over v in the push orbit of w of (f_y | v) = (-1)^r A.

    Orbits are traversed with repetitions (a word of depth r always
    contributes r+1 terms).  Returns the verdict and a witness word on
    failure.

    The law is linear in f, so the sums run on the integer numerators P
    of f = P/D; A is read off f, and a failing sum is divided by D as
    poly._over does.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous() or n < 2:
        raise ValueError("signed_push_sums_check requires homogeneous degree >= 2")
    lead = (1 << n) | 1  # x^(n-1) y
    a = f.coeff(lead)
    num, den = numerators(f)
    a_num = num.get(lead, 0)
    _, fy = decompose_right(Poly._of(num))
    get = fy.terms.get
    if get(words.y_power(n - 1), 0):
        return {"verdict": False, "A": a, "witness": "y" * (n - 1)}
    for orbit in words.push_orbits(n - 1):
        w = orbit[0]
        if words.is_power_of_y(w):
            continue
        even = words.depth(w) % 2 == 0
        total = sum(get(v, 0) for v in orbit)
        if total != (a_num if even else -a_num):
            met = any(v in fy.terms for v in orbit)
            return {
                "verdict": False,
                "A": a,
                "witness": words.str_from_code(w),
                "sum": _over(total, den, met and _is_fractional(f)),
                "expected": a if even else -a,
            }
    return {"verdict": True, "A": a, "witness": None}
