"""Independent reference implementations used by the test suite.

Everything here is deliberately written against different primitives
than the package under test: shuffles come from explicit subset
interleavings, stuffles from surjection pairs onto a common index set,
and the membership problem is posed on raw monomial unknowns (one per
word) rather than on free-Lie coordinates.  Dimensions are certified by
combining a modular-arithmetic upper bound with exact verification of
the candidate basis against every constraint row.  The group layer is
defined straight from its formulas on Poly ring arithmetic alone: every
product is built in full and truncated afterwards.  The rational
nullspace comes from fraction-free Bareiss elimination and
back-substitution, and so does the special partner G of [x, G] =
-[y, F]; a nullspace candidate is checked one vector at a time.  The
section maps s, s' sum Fraction-scaled ring products, and the symmetry
predicates compare f with its anti or push image built in full.
Commutative polynomials are evaluated at points, which checks a change
of variables without expanding it.
A report's text is checked against json.dumps on the plain data that
the original report converter made of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from dskrv import derivations, dshuffle, groupexp, lie, linalg, moulds, words
from dskrv.moulds import CPoly, z_family
from dskrv.poly import (
    Poly,
    accumulate,
    anti,
    coeff_to_str,
    decompose_right,
    is_antipalindromic,
    is_push_invariant,
    numerators,
    partial_x,
    poly_to_json,
    push,
    subst_linear,
)

MODULUS = 2_000_003  # prime; squares stay far below 2**63


# -- words as plain strings ------------------------------------------------------


def interleave_shuffle(u: str, v: str) -> dict[str, int]:
    """Shuffle product by explicit choice of positions for u."""
    out: dict[str, int] = {}
    n = len(u) + len(v)
    for pos in combinations(range(n), len(u)):
        w = [""] * n
        it_u = iter(u)
        it_v = iter(v)
        posset = set(pos)
        for i in range(n):
            w[i] = next(it_u) if i in posset else next(it_v)
        s = "".join(w)
        out[s] = out.get(s, 0) + 1
    return out


def exponents_by_str(code: int) -> tuple[int, ...]:
    """(a_0, ..., a_r) of x^a0 y ... y x^ar: the lengths of the x-runs between the y's."""
    return tuple(len(run) for run in words.str_from_code(code).split("y"))


def anti_by_str(code: int) -> int:
    """The reversed word, reversed as a string."""
    return words.code_from_str(words.str_from_code(code)[::-1])


def push_by_str(code: int) -> int:
    """The push: the last x-run moves to the front, the y's stay between runs."""
    runs = words.str_from_code(code).split("y")
    return words.code_from_str("y".join(runs[-1:] + runs[:-1]))


def _degrees_up_to(n: int):
    """(a, b) with 1 <= a <= b and a + b <= n, by a, then b."""
    return ((a, b) for a in range(1, n // 2 + 1) for b in range(a, n - a + 1))


def word_pairs(n: int, y_ending: bool = False):
    """The pairs (u, v) of nonempty words (ending in y, with y_ending),
    as codes, with deg u <= deg v and deg u + deg v <= n; they run by
    deg u, deg v, u, v in code order, with v >= u at equal degree."""
    for a, b in _degrees_up_to(n):
        left, right = words.all_words(a), words.all_words(b)
        if y_ending:
            left, right = left[1::2], right[1::2]
        for i, u in enumerate(left):
            for v in right[i:] if a == b else right:
                yield u, v


def shuffle_table(n: int):
    """The triples (u, v, sh(u, v)) over the pairs of word_pairs(n).

    Words are codes, and each shuffle comes from interleave_shuffle.
    """
    for u, v in word_pairs(n):
        sh = interleave_shuffle(words.str_from_code(u), words.str_from_code(v))
        yield u, v, {words.code_from_str(w): c for w, c in sh.items()}


def pairing_failures(table, num: dict[int, int], den: int):
    """Sweep (u, v, product) entries against the series f = num/den.

    Yields (index, entry, value) for each entry with
    den * (num | product) != num(u) * num(v), that is
    (f | product) != f(u) f(v), where value is the integer pairing
    (num | product) and product is a built {word: multiplicity}.
    """
    for i, (u, v, product) in enumerate(table):
        value = sum(c * num.get(w, 0) for w, c in product.items())
        if den * value != num.get(u, 0) * num.get(v, 0):
            yield i, (u, v, product), value


def first_pairing_failure(table, num: dict[int, int], den: int) -> dict:
    """The first failure of pairing_failures as a sweep report: the verdict,
    the witness pair as strings and the number of entries before it (all
    of them on a pass)."""
    for i, (u, v, _), _ in pairing_failures(table, num, den):
        witness = (words.str_from_code(u), words.str_from_code(v))
        return {"verdict": False, "witness": witness, "pairs": i}
    return {"verdict": True, "witness": None, "pairs": len(table)}


def composition_of_word(w: str) -> tuple[int, ...]:
    """Split a y-ending word into blocks x^(i-1) y, returning the i's."""
    if not w.endswith("y"):
        raise ValueError("composition encoding needs a y-ending word")
    comp = []
    run = 0
    for ch in w:
        if ch == "x":
            run += 1
        else:
            comp.append(run + 1)
            run = 0
    return tuple(comp)


def word_of_composition(comp: tuple[int, ...]) -> str:
    return "".join("x" * (i - 1) + "y" for i in comp)


def surjection_stuffle(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Stuffle by pairs of order-preserving injections covering [r].

    For each admissible length r, choose the positions hit by a and by
    b; every position must be hit by at least one of the two, and the
    value at a position is the sum of the entries mapped there.
    """
    p, q = len(a), len(b)
    out: dict[tuple[int, ...], int] = {}
    for r in range(max(p, q), p + q + 1):
        for pos_a in combinations(range(r), p):
            set_a = set(pos_a)
            for pos_b in combinations(range(r), q):
                if set_a | set(pos_b) != set(range(r)):
                    continue
                c = [0] * r
                for i, t in enumerate(pos_a):
                    c[t] += a[i]
                for j, t in enumerate(pos_b):
                    c[t] += b[j]
                key = tuple(c)
                out[key] = out.get(key, 0) + 1
    return out


def stuffle_table(n: int):
    """The triples (u, v, st(u, v)) over the pairs of word_pairs(n, y_ending=True).

    Words are codes, and each stuffle comes from surjection_stuffle.
    """
    for u, v in word_pairs(n, y_ending=True):
        a = composition_of_word(words.str_from_code(u))
        b = composition_of_word(words.str_from_code(v))
        st = surjection_stuffle(a, b)
        yield u, v, {words.code_from_str(word_of_composition(c)): m for c, m in st.items()}


# -- the dual coproducts by recursion on the first unit ---------------------------


def _coproduct(series, first_unit, unit_coproduct, reach: int = 0):
    """The coproduct of series = {word: c}, as {(deg u, deg v): {(u, v): c}}.

    Delta is multiplicative for concatenation, so with first_unit(w) =
    (p, rest) splitting off the first unit p of each nonempty word,
    Delta(series) = c_empty 1(x)1 + sum_p Delta(p) Delta(p^-1 series),
    where unit_coproduct(p) lists the terms (l, r) of Delta(p).
    Prepending a word l to a word u of degree m adds (l - 1) << m to
    its code.  The residuals have the prefix of degree reach still to
    come; a bucket with deg u > deg v + reach can never reach
    deg u <= deg v, so it is dropped.
    """
    out: dict = {}
    residuals: dict = {}
    for w, c in series.items():
        if w == words.EMPTY:
            out[0, 0] = {(w, w): c}
        else:
            p, rest = first_unit(w)
            residuals.setdefault(p, {})[rest] = c
    for p, residual in residuals.items():
        pieces = [(l, r, words.degree(l), words.degree(r)) for l, r in unit_coproduct(p)]
        sub = _coproduct(residual, first_unit, unit_coproduct, reach + words.degree(p))
        for (a, b), entries in sub.items():
            for l, r, dl, dr in pieces:
                if a + dl > b + dr + reach:
                    continue
                du, dv = (l - 1) << a, (r - 1) << b
                dst = out.setdefault((a + dl, b + dr), {})
                for (u, v), c in entries.items():
                    key = (u + du, v + dv)
                    dst[key] = dst.get(key, 0) + c
    return out


def _first_letter(w: int) -> tuple[int, int]:
    n = words.degree(w)
    return 2 + ((w >> (n - 1)) & 1), (1 << (n - 1)) | (w & ((1 << (n - 1)) - 1))


def _first_block(w: int) -> tuple[int, int]:
    """(code of the first block x^(j-1) y, code of the rest) of a word ending in y."""
    n = words.degree(w)
    rest = w ^ (1 << n)  # the block's y becomes the rest's length prefix
    return (1 << (n - words.degree(rest))) | 1, rest


def _block_coproduct(p: int) -> list[tuple[int, int]]:
    """Delta(y_j) = sum over i + k = j of y_i (x) y_k, with y_0 the empty word."""
    j = words.degree(p)
    return [((1 << i) | 1, (1 << (j - i)) | 1) for i in range(j + 1)]


def _nonzero(buckets) -> dict[tuple[int, int], object]:
    return {k: c for entries in buckets.values() for k, c in entries.items() if c}


def shuffle_coproduct(series: dict[int, object]) -> dict[tuple[int, int], object]:
    """The nonzero (f | sh(u, v)), deg u <= deg v, by the sparse recursion
    with every letter primitive."""
    return _nonzero(_coproduct(series, _first_letter, lambda p: ((p, 1), (1, p))))


def stuffle_coproduct(series: dict[int, object]) -> dict[tuple[int, int], object]:
    """The nonzero (f | st(u, v)), deg u <= deg v, of a series of words
    ending in y, by the sparse recursion on first blocks."""
    return _nonzero(_coproduct(series, _first_block, _block_coproduct))


def block_coproduct_of_word(w: str) -> dict[tuple[str, str], int]:
    """Delta of a word ending in y as the product over its blocks y_j of
    sum over i + k = j of y_i (x) y_k, with y_0 the empty word."""

    def block(i: int) -> str:
        return word_of_composition((i,)) if i else ""

    out = {("", ""): 1}
    for j in composition_of_word(w):
        out_next: dict[tuple[str, str], int] = {}
        for (u, v), c in out.items():
            for i in range(j + 1):
                key = (u + block(i), v + block(j - i))
                out_next[key] = out_next.get(key, 0) + c
        out = out_next
    return out


# -- the membership problem on monomial unknowns ---------------------------------


def all_degree_words(n: int) -> list[str]:
    return [format(k, "b")[1:].replace("0", "x").replace("1", "y") for k in range(1 << n, 2 << n)]


def witt_dimension(n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on two letters,
    by Witt's formula (1/n) sum over d | n of mu(d) 2^(n/d)."""

    def mobius(d: int) -> int:
        out, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        if d > 1:
            out = -out
        return out

    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise AssertionError(f"necklace count {total} at degree {n} is not divisible by {n}")
    return total // n


def constraint_rows(n: int) -> list[dict[str, int]]:
    """Sparse constraint rows for the degree-n membership problem.

    Lie rows: (f | sh(u, v)) = 0 over all nonempty pairs with
    deg u + deg v = n, u <= v.  Stuffle rows: (f | st(u, v)) = 0 over
    y-ending pairs not both powers of y.
    """
    rows: list[dict[str, int]] = []
    for da in range(1, n // 2 + 1):
        db = n - da
        for u in all_degree_words(da):
            for v in all_degree_words(db):
                if da == db and v < u:
                    continue
                rows.append(interleave_shuffle(u, v))
    for da in range(1, n // 2 + 1):
        db = n - da
        for u in all_degree_words(da):
            if not u.endswith("y"):
                continue
            for v in all_degree_words(db):
                if not v.endswith("y") or (da == db and v < u):
                    continue
                if set(u) == {"y"} and set(v) == {"y"}:
                    continue
                st = surjection_stuffle(composition_of_word(u), composition_of_word(v))
                rows.append({word_of_composition(c): m for c, m in st.items()})
    return rows


def modular_nullity(rows: list[dict[str, int]], columns: list[str], p: int = MODULUS) -> int:
    """Nullity of the row space over the field with p elements.

    The rational nullity can only be smaller (reduction mod p cannot
    decrease the nullspace), so this is an exact upper bound for the
    dimension of the rational solution space.
    """
    import numpy as np

    index = {w: j for j, w in enumerate(columns)}
    mat = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for i, row in enumerate(rows):
        for w, c in row.items():
            mat[i, index[w]] = c % p
    rank = 0
    nrows = mat.shape[0]
    for col in range(len(columns)):
        piv = None
        for i in range(rank, nrows):
            if mat[i, col] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        rest = mat[rank + 1 :, col].copy()
        mat[rank + 1 :] = (mat[rank + 1 :] - rest[:, None] * mat[rank][None, :]) % p
        rank += 1
        if rank == nrows:
            break
    return len(columns) - rank


def exact_row_check(rows: list[dict[str, int]], vector: dict[str, Fraction]) -> bool:
    """Exact rational verification of one candidate solution."""
    for row in rows:
        total = sum(Fraction(c) * vector.get(w, Fraction(0)) for w, c in row.items())
        if total:
            return False
    return True


def certified_dimension(n: int, candidates: list[dict[str, Fraction]]) -> dict:
    """Certify the dimension of the degree-n solution space.

    candidates: linearly independent exact solutions from the
    implementation under test.  If every candidate satisfies every
    constraint row exactly (lower bound len(candidates)) and the
    modular nullity equals len(candidates) (upper bound), the dimension
    is certified.
    """
    rows = constraint_rows(n)
    columns = all_degree_words(n)
    upper = modular_nullity(rows, columns)
    verified = all(exact_row_check(rows, v) for v in candidates)
    certified = verified and upper == len(candidates)
    return {
        "weight": n,
        "rows": len(rows),
        "upper_bound": upper,
        "candidates": len(candidates),
        "candidates_verified": verified,
        "certified": certified,
        "dimension": upper if certified else None,
    }


# -- the double shuffle basis from every constraint row ------------------------------


def full_row_ds_basis(n: int) -> dict:
    """ds_basis(n) from the certified nullspace of all its constraint rows.

    The kernel of every row of dshuffle.constraint_rows(n), in reduced
    echelon form over Lyndon coordinates, with the rescaling, the
    constraint statistics and the certificates that ds_basis reports.
    """
    d = lie.lyndon_basis(n).dimension
    rows = dshuffle.constraint_rows(n)
    lead_word = (1 << n) | 1  # x^(n-1) y
    basis = []
    for vec in linalg.nullspace(rows, d):
        f = lie.from_coords(vec, n)
        a = f.coeff(lead_word)
        if n % 2 == 1 and a:
            f = f.scale(Fraction(1, 1) / a)
        basis.append(f)
    certificates = {
        "elements_pass_is_ds": all(dshuffle.is_ds(f, strict=True) for f in basis),
        "elements_are_lie": all(lie.is_lie(f) for f in basis),
        "lead_coefficient": tuple(str(f.coeff(lead_word)) for f in basis),
        "even_weight_lead_vanishes": (
            all(f.coeff(lead_word) == 0 for f in basis) if n % 2 == 0 else None
        ),
    }
    stats = {"rows": len(rows), "cols": d, "rank": d - len(basis)}
    return {"basis": basis, "constraint_stats": stats, "certificates": certificates}


# -- the group layer from its formulas ---------------------------------------------

X = Poly.word("x")
Y = Poly.word("y")


def cut(f: Poly, trunc: int) -> Poly:
    """Drop the terms of degree > trunc."""
    return Poly({w: c for w, c in f.terms.items() if words.degree(w) <= trunc})


def substitute_letters(h: Poly, x_image: Poly, y_image: Poly) -> Poly:
    """The derivation x -> x_image, y -> y_image, one letter and one product at a time."""
    images = (x_image, y_image)
    out = Poly.zero()
    for w, c in h.terms.items():
        n = words.degree(w)
        for i in range(n):
            pre = w >> (i + 1)
            post = (1 << i) | (w & ((1 << i) - 1))
            piece = Poly.word(pre) * images[(w >> i) & 1] * Poly.word(post)
            out = out + piece.scale(c)
    return out


def expand_substitution(f: Poly, x_image: Poly, y_image: Poly) -> Poly:
    """The algebra substitution x -> x_image, y -> y_image, word by word.

    Each word is expanded as the product of the images of its letters,
    and c times that product is added into the result.
    """
    images = (x_image, y_image)
    terms: dict[int, object] = {}
    for w, c in f.terms.items():
        prod = Poly.one()
        for bit in words.letters_of(w):
            prod = prod * images[bit]
        accumulate(terms, prod.terms.items(), c)
    return Poly(terms)


def expand_cpoly_subst(p: CPoly, images: list[dict[int, object]], new_arity: int) -> CPoly:
    """CPoly.subst one linear factor at a time.

    Each monomial c * prod_i v_i^(e_i) is expanded by multiplying in the
    form of variable i, e_i times, one sparse Fraction-or-int dict per
    factor, and the expansion is added into the result.
    """
    if len(images) != p.arity:
        raise ValueError(f"expected {p.arity} linear forms, got {len(images)}")
    for form in images:
        if any(not 0 <= j < new_arity for j in form):
            raise ValueError(f"linear form {form} leaves the {new_arity} new variables")
    zero = (0,) * new_arity
    out: dict[tuple[int, ...], object] = {}
    for exps, c in p.terms.items():
        acc = {zero: c}
        for form, e in zip(images, exps):
            for _ in range(e):
                acc = accumulate(
                    {},
                    (
                        (t[:j] + (t[j] + 1,) + t[j + 1 :], tc * a)
                        for t, tc in acc.items()
                        for j, a in form.items()
                    ),
                )
        accumulate(out, acc.items())
    return CPoly(new_arity, out)


def z_family_by_copy(f: Poly) -> dict[int, CPoly]:
    """The z-family components of f, added up key by key and copied
    through the validating CPoly constructor."""
    comps: dict[int, dict[tuple[int, ...], object]] = {}
    for w, c in f.terms.items():
        e = exponents_by_str(w)
        t = comps.setdefault(len(e) - 1, {})
        t[e] = t.get(e, 0) + c
    return {r: CPoly(r + 1, t) for r, t in comps.items()}


def d_f(f: Poly, g: Poly) -> Poly:
    """x -> 0, y -> [y, f], applied to g."""
    return substitute_letters(g, Poly.zero(), Y * f - f * Y)


def tangential_apply(F: Poly, G: Poly, h: Poly) -> Poly:
    """x -> [x, G], y -> [y, F], applied to h."""
    return substitute_letters(h, X * G - G * X, Y * F - F * Y)


def exp_circle(f: Poly, trunc: int) -> Poly:
    """sum of f^(.k)/k! with f (.) g = fg + d_f(g), each power cut after it is built."""
    fcut = cut(f, trunc)
    total = Poly.one()
    power = Poly.one()
    k = 0
    kfact = 1
    while power:
        k += 1
        kfact *= k
        power = cut(fcut * power + d_f(fcut, power), trunc)
        total = total + power.scale(Fraction(1, kfact))
    return total


def star_series(phi: Poly, trunc: int) -> Poly:
    """Phi_* = exp(sum ((-1)^(n-1)/n)(Phi|x^(n-1)y) y^n) pi_y(Phi), on Fractions.

    The exponential of the correction, a series in y alone, is summed
    power by power; every product is cut after it is built, and the
    projection onto words ending in y keeps the constant term.
    """
    corr = Poly(
        {
            words.y_power(d): Fraction((-1) ** (d - 1), d) * phi.terms.get((1 << d) | 1, 0)
            for d in range(1, trunc + 1)
        }
    )
    expo = Poly.one()
    power = Poly.one()
    kfact = 1
    for k in range(1, trunc + 1):
        power = cut(power * corr, trunc)
        kfact *= k
        expo = expo + power.scale(Fraction(1, kfact))
    proj = Poly({w: c for w, c in phi.terms.items() if w == words.EMPTY or words.ends_in_y(w)})
    return cut(expo * proj, trunc)


def log_circle(phi: Poly, trunc: int) -> Poly:
    """The f with exp_circle(f, trunc) = phi, found degree by degree at full order."""
    f = Poly.zero()
    for d in range(1, trunc + 1):
        f = f + (phi - exp_circle(f, trunc)).homogeneous_part(d)
    return f


def exp_derivation(F: Poly, G: Poly, h: Poly, trunc: int) -> Poly:
    """sum of D^k(h)/k! for D = (F, G), each power cut after it is built."""
    total = cut(h, trunc)
    term = total
    kfact = 1
    k = 0
    while term:
        k += 1
        kfact *= k
        term = cut(tangential_apply(F, G, term), trunc)
        total = total + term.scale(Fraction(1, kfact))
    return total


def grouplike_sweep(series: Poly, trunc: int, product, y_ending: bool = False) -> dict:
    """The first pair with (series | product(u, v)) != series(u) series(v).

    Pairs of nonempty words (ending in y, with y_ending) have
    1 <= deg u <= deg v, deg u + deg v <= trunc and v >= u at equal
    degree; they run by deg u, deg v, u, v, each in lexicographic order.
    Returns the verdict, the witness pair and the number of pairs
    before it (all of them on a pass).
    """
    checked = 0
    for a in range(1, trunc // 2 + 1):
        for b in range(a, trunc - a + 1):
            for u in all_degree_words(a):
                for v in all_degree_words(b):
                    if (a == b and v < u) or (y_ending and not u[-1] == v[-1] == "y"):
                        continue
                    if series.pairing(product(u, v)) != series.coeff(u) * series.coeff(v):
                        return {"verdict": False, "witness": (u, v), "pairs": checked}
                    checked += 1
    return {"verdict": True, "witness": None, "pairs": checked}


# -- the rational nullspace by Bareiss elimination --------------------------------


def rank(rows: list[list], ncols: int) -> int:
    """Rank of the rows: the pivot count of their fraction-free echelon form."""
    return len(linalg.row_echelon(rows, ncols)[1])


def special_subspace(n: int) -> list[Poly]:
    """Basis of homogeneous degree-n Lie elements F with F_y antipalindromic."""
    rows, d = derivations._antipalindromy_rows(n)
    return [lie.from_coords(vec, n) for vec in bareiss_nullspace(rows, d)]


def bareiss_nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Canonical rational nullspace basis from fraction-free elimination.

    Each free column of the integer echelon form gives one vector, with
    its pivot coordinates filled by exact back-substitution; the basis
    is returned in reduced row echelon form.
    """
    ech, pivots = linalg.row_echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        _back_substitute(ech, pivots, v)
        basis.append(v)
    return linalg.rref(basis, ncols)


def failing_row_by_vector(rows: list[list[int]], vecs: list[list[Fraction]]) -> int | None:
    """Index of a row with a nonzero product with one of vecs, or None:
    each vector in turn, scaled to integer numerators, against every row."""
    for vec in vecs:
        den = lcm(*(q.denominator for q in vec))
        ints = [q.numerator * (den // q.denominator) for q in vec]
        for i, row in enumerate(rows):
            if sum(map(mul, row, ints)):
                return i
    return None


def bareiss_solve(rows: list[list], rhs: list, ncols: int) -> list[Fraction] | None:
    """One solution of rows * v = rhs, or None, by fraction-free elimination of
    the augmented rows: the free coordinates are 0, the pivot ones filled by
    exact back-substitution."""
    ech, pivots = linalg.row_echelon([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    v = [Fraction(0)] * ncols + [Fraction(-1)]
    _back_substitute(ech, pivots, v)
    return v[:ncols]


def _back_substitute(ech: list[list[int]], pivots: list[int], v: list[Fraction]) -> None:
    """Fill the pivot coordinates of v so that every echelon row pairs to zero."""
    for c, row in reversed(list(zip(pivots, ech))):
        s = sum(row[j] * v[j] for j in range(c + 1, len(v)) if v[j])
        v[c] = Fraction(-s, row[c])


# -- the special partner and the section maps, on Fractions -------------------------


def partner_by_solve(F: Poly) -> Poly | None:
    """Solve [x, G] = -[y, F] for Lie G, or None, by Bareiss elimination
    on the Lyndon coordinates of the degree-n component (free
    coordinates 0)."""
    n = F.degree()
    if n is None:
        return Poly.zero()
    lb = lie.lyndon_basis(n)
    cols = [lie.bracket(X, e) for e in lb.expansions]
    rhs_poly = -lie.bracket(Y, F)
    word_set = sorted(set().union(*(set(c.terms) for c in cols), set(rhs_poly.terms)))
    rows = [[c.terms.get(w, 0) for c in cols] for w in word_set]
    rhs = [rhs_poly.terms.get(w, 0) for w in word_set]
    sol = bareiss_solve(rows, rhs, lb.dimension)
    if sol is None:
        return None
    return lie.from_coords(sol, n)


def section_map_fold(h: Poly, right: bool) -> Poly:
    """sum_i (-1)^i/i! (d/dx)^i(h) y x^i if right, else sum_i (-1)^i/i! x^i y (d/dx)^i(h),
    each summand a Poly product added with a Fraction scalar."""
    terms: dict = {}
    term = h
    i = 0
    fact = 1
    while term:
        if right:
            product = term * Poly.word(words.concat_codes(words.Y_CODE, words.x_power(i)))
        else:
            product = Poly.word(words.concat_codes(words.x_power(i), words.Y_CODE)) * term
        sign = -1 if i & 1 else 1
        accumulate(terms, product.terms.items(), Fraction(sign, fact))
        i += 1
        fact *= i
        term = partial_x(term)
    return Poly._of(terms)


# -- the symmetry predicates by building the image ---------------------------------


def _homogeneous_degree(f: Poly, op: str) -> int | None:
    if not f.is_homogeneous():
        raise ValueError(f"{op} requires a homogeneous polynomial")
    return f.degree()


def is_palindromic_by_image(f: Poly) -> bool:
    """f == (-1)^(m-1) anti(f), with anti(f) built in full."""
    m = _homogeneous_degree(f, "is_palindromic")
    if m is None:
        return True
    return f == (anti(f) if (m - 1) % 2 == 0 else -anti(f))


def is_antipalindromic_by_image(f: Poly) -> bool:
    """f == (-1)^m anti(f), with anti(f) built in full."""
    m = _homogeneous_degree(f, "is_antipalindromic")
    if m is None:
        return True
    return f == (anti(f) if m % 2 == 0 else -anti(f))


def is_push_invariant_by_image(f: Poly) -> bool:
    """push(f) == f, with push(f) built in full."""
    if _homogeneous_degree(f, "is_push_invariant") is None:
        return True
    return push(f) == f


# -- sparse accumulation as a fold of ring additions --------------------------------


def fold_sum(start: dict, steps: list[tuple[dict, object]]) -> Poly:
    """start + sum of c*src over steps, as the fold out = out + Poly(src).scale(c).

    Each addition is one dict merge, not a loop of in-place updates: a key
    of out keeps its place, a new key goes last, and Poly drops every key
    whose sum is 0.
    """
    out = Poly(start)
    for src, c in steps:
        scaled = Poly(src).scale(c).terms
        out = Poly({**out.terms, **{k: out.terms.get(k, 0) + v for k, v in scaled.items()}})
    return out


def concat_fold(f: Poly, g: Poly) -> dict:
    """The terms of fg, accumulated word pair by word pair with words.concat_codes."""
    pairs = (
        (words.concat_codes(a, b), ca * cb)
        for a, ca in f.terms.items()
        for b, cb in g.terms.items()
    )
    return accumulate({}, pairs)


def bracket_fold(f: Poly, g: Poly) -> dict:
    """The terms of fg - gf: both products in full, then their difference."""
    return accumulate(concat_fold(f, g), concat_fold(g, f).items(), -1)


# -- the ad(x)-product expansion -------------------------------------------------------


def poly_from_ad_basis(coeffs: dict[tuple[int, ...], object]) -> Poly:
    """sum over the compositions c of b_c ad(x)^(c_1)(y) ... ad(x)^(c_r)(y),
    each ad(x)^k(y) taken as k commutators x g - g x."""
    out = Poly.zero()
    for comp, b in coeffs.items():
        product = Poly.one()
        for k in comp:
            factor = Y
            for _ in range(k):
                factor = X * factor - factor * X
            product = product * factor
        out = out + product.scale(b)
    return out


# -- commutative polynomials -----------------------------------------------------


def evaluate(terms: dict[tuple[int, ...], object], point: list) -> Fraction:
    """Value at a point of the polynomial sum c * prod_i point[i]**e[i]."""
    total = Fraction(0)
    for exps, c in terms.items():
        value = Fraction(c)
        for x, e in zip(point, exps, strict=True):
            value *= Fraction(x) ** e
        total += value
    return total


def antipal_bridge_by_subst(f: Poly) -> dict:
    """moulds.antipal_bridge_check built from CPoly.subst, div_var and ring arithmetic.

    Each form is the change of variables written in its docstring: the
    renames and drops of z_0..z_(r+1) are CPoly.subst calls, and the
    divided differences are exact divisions by one variable.
    """
    n = f.degree()
    if n is None or not f.is_homogeneous() or n < 2:
        raise ValueError("antipal_bridge_check requires homogeneous input of degree >= 2")
    fx, fy = decompose_right(f)
    h = fx + fy
    zf = z_family(f)
    zh = z_family(h)
    sign = 1 if (n - 1) % 2 == 0 else -1
    per_depth = {}
    c0 = h.terms.get(words.x_power(n - 1), 0)
    per_depth[0] = c0 == sign * c0
    formula_matches = True
    for r in range(1, n):
        vnext = zf.component(r + 1)
        vr = zf.component(r)

        ident = [{k: 1} for k in range(r + 1)]  # z_0, ..., z_r
        a = vnext.subst(ident + [{}], r + 1)
        cut = vr.subst(ident[:r] + [{}], r + 1)
        lhs = a + (vr - cut).div_var(r)

        rev = ident[::-1]  # z_r, ..., z_0
        arev = vnext.subst(rev + [{}], r + 1)
        gcut = vr.subst(rev[:r] + [{}], r + 1)
        rhs = (arev + (vr.subst(rev, r + 1) - gcut).div_var(0)).scale(sign)

        if lhs != zh.component(r):
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


def special_equivalences_peel_first(f: Poly) -> dict:
    """derivations.special_equivalences with the formula condition read as
    is_lie(G) and not ([x, P] + D [y, F]), G = P/D: G is peeled first."""
    big_f = subst_linear(f, -X - Y, Y)
    big_fx, big_fy = decompose_right(big_f)
    fx, fy = decompose_right(f)
    g_solved = derivations.partner_by_elimination(big_f)
    g_formula = derivations.solve_partner(big_f)
    num, den = numerators(g_formula)
    formula = lie.is_lie(g_formula) and not (
        lie.bracket(X, Poly._of(num)) + lie.bracket(Y, big_f).scale(den)
    )
    report = {
        "existence": g_solved is not None,
        "formula": formula,
        "right_anti": is_antipalindromic(big_fy),
        "push_inv": is_push_invariant(big_f),
        "factor_anti": is_antipalindromic(fy - fx),
    }
    report["agree"] = len(set(report.values())) == 1
    report["partner"] = g_solved
    return report


# -- report data for json.dumps ----------------------------------------------------


def jsonable(obj):
    """Recursively convert report values to JSON-encodable data."""
    if isinstance(obj, Fraction):
        return coeff_to_str(obj)
    if isinstance(obj, Poly):
        return poly_to_json(obj)
    if isinstance(obj, (derivations.TangentialDerivation, moulds.Mould, groupexp.TruncSeries)):
        return obj.to_json()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
