"""The shared sparse-term core (poly.Terms) and the ds identities, as properties.

Poly, moulds.CPoly and derivations.CyclicPoly all store a combination as
a dict with no zero value and share +, -, unary -, scale and ==.  The
references below are written on plain dicts: a sum is one dict merge in
which a key keeps its place, a new key goes last and a zero sum is
dropped, as in oracles.fold_sum.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskrv import derivations, dshuffle, groupexp, moulds
from dskrv.derivations import CyclicPoly
from dskrv.moulds import CPoly
from dskrv.poly import Poly, Terms

_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(-2, 2, max_denominator=4).filter(bool),
)
# 0 in a constructor's dict must be dropped; Fraction(0) is a zero too
_raw = st.one_of(_coeffs, st.sampled_from([0, Fraction(0)]))
_scalars = st.one_of(st.sampled_from([0, 1, -1, Fraction(1)]), _coeffs)


def typed(terms):
    return [(k, type(v), v) for k, v in terms.items()]


def ref_merge(a: dict, b: dict, c) -> list:
    """a + c*b as one dict merge, zero sums dropped."""
    merged = {**a, **{k: a.get(k, 0) + c * v for k, v in b.items()}}
    return typed({k: v for k, v in merged.items() if v})


def ref_scale(a: dict, c) -> list:
    return typed({k: c * v for k, v in a.items()}) if c else []


def ref_clean(d: dict) -> list:
    return typed({k: v for k, v in d.items() if v})


def _kinds(arity):
    """Each kind's key strategy and its constructor from a dict."""
    return {
        "Poly": (st.integers(2, 9), Poly),
        "CyclicPoly": (st.integers(2, 9), CyclicPoly),
        "CPoly": (
            st.tuples(*[st.integers(0, 2)] * arity),
            lambda d: CPoly(arity, d),
        ),
    }


@pytest.mark.parametrize("kind", ["Poly", "CPoly", "CyclicPoly"])
@given(data=st.data())
def test_terms_operations_match_the_dict_merge(kind, data):
    arity = data.draw(st.integers(1, 3), label="arity")
    keys, make = _kinds(arity)[kind]
    raw_a = data.draw(st.dictionaries(keys, _raw, max_size=6), label="a")
    a = make(raw_a)
    ta = dict(a.terms)
    assert typed(a.terms) == ref_clean(raw_a) and a.terms is not raw_a
    # b cancels some keys of a under +, some under -, and brings new ones
    raw_b = {}
    for k, v in ta.items():
        raw_b[k] = data.draw(st.sampled_from([-v, v, None]), label=f"b[{k}]")
    raw_b = {k: v for k, v in raw_b.items() if v is not None}
    raw_b.update(data.draw(st.dictionaries(keys, _raw, max_size=4), label="new"))
    b = make(raw_b)
    tb = dict(b.terms)
    c = data.draw(_scalars, label="c")

    results = {
        "+": (a + b, ref_merge(ta, tb, 1)),
        "-": (a - b, ref_merge(ta, tb, -1)),
        "neg": (-a, typed({k: -v for k, v in ta.items()})),
        "scale": (a.scale(c), ref_scale(ta, c)),
    }
    for op, (got, want) in results.items():
        assert type(got) is type(a), op
        assert getattr(got, "arity", None) == getattr(a, "arity", None), op
        assert typed(got.terms) == want, op
        for held in (a.terms, b.terms, raw_a, raw_b):
            assert got.terms is not held, op
    for c in (0, 1, -1, Fraction(1)):
        got = a.scale(c)
        assert typed(got.terms) == ref_scale(ta, c)
        assert got.terms is not a.terms
    # the operands are unchanged, and equal to copies of themselves
    assert a.terms == ta and b.terms == tb
    assert a == make(dict(ta)) and bool(a) == bool(ta)
    assert (a - a) == make({}) and not (a - a)
    with pytest.raises(AttributeError):
        a.terms = {}


def test_equality_needs_the_same_kind_and_arity():
    assert Poly({}) != CyclicPoly({}) and CyclicPoly({5: 1}) != Poly({5: 1})
    assert CPoly(2, {}) != CPoly(3, {})
    assert CPoly(2, {(1, 0): 1}) == CPoly(2, {(1, 0): 1, (0, 1): 0})
    assert hash(CyclicPoly({5: 1, 6: 0})) == hash(CyclicPoly({5: 1}))
    assert hash(Poly({5: Fraction(1)})) == hash(Poly({5: 1}))
    for op in ("__add__", "__sub__"):
        with pytest.raises(ValueError, match="arity mismatch"):
            getattr(CPoly(2, {(1, 0): 1}), op)(CPoly(3, {}))
    with pytest.raises(ValueError):
        CPoly(2, {(1, 0, 0): 0})


def _combination(n: int) -> st.SearchStrategy[Poly]:
    """Nonzero Fraction multiples of each ds basis element at weight n, summed."""
    basis = dshuffle.ds_basis(n).basis
    cs = st.fractions(-9, 9, max_denominator=7).filter(bool)
    return st.lists(cs, min_size=len(basis), max_size=len(basis)).map(
        lambda c: sum((f.scale(ci) for f, ci in zip(basis, c)), Poly.zero())
    )


_ds_elements = st.sampled_from(range(3, 9)).filter(
    lambda n: dshuffle.ds_basis(n).dimension
).flatmap(_combination)


@settings(max_examples=25, deadline=None)
@given(_ds_elements)
def test_ds_identities_on_random_multiples(f):
    assert derivations.krv_to_ds(derivations.ds_to_krv(f)) == f
    antipal = moulds.antipal_sum_check(f)
    assert antipal["verdict"] and antipal["consistent"]
    assert dshuffle.signed_push_sums_check(f)["verdict"]


# -- copies and pickles of the immutable value types -------------------------------

_VALUES = {
    "Poly": lambda f3: f3 + Poly.word("xy", Fraction(1, 2)) + Poly.word("y", 3),
    "CPoly": lambda f3: CPoly(2, {(1, 0): 1, (0, 2): Fraction(-1, 3)}),
    "CyclicPoly": lambda f3: derivations.trace(f3 + Poly.word("xxy", 2)),
    "Mould": lambda f3: moulds.u_family(f3),
    "TruncSeries": lambda f3: groupexp.exp_circle(f3, 5),
    "BasisResult": lambda f3: dshuffle.ds_basis(3),
    "TangentialDerivation": lambda f3: derivations.ds_to_krv(f3),
}


def _state(obj) -> tuple:
    """The public slots of obj, with the type of every coefficient."""
    if isinstance(obj, Terms):
        return type(obj), getattr(obj, "arity", None), typed(obj.terms)
    names = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
    return type(obj), {
        n: dict(v) if isinstance(v, MappingProxyType) else v
        for n in names
        if not n.startswith("_")
        for v in [getattr(obj, n)]
    }


@pytest.mark.parametrize("kind", sorted(_VALUES))
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_value_types_copy_and_pickle(f3, kind, clone):
    value = _VALUES[kind](f3)
    twin = clone(value)
    assert type(twin) is type(value) and _state(twin) == _state(value)
    if type(value).__eq__ is not object.__eq__:
        assert twin == value
    with pytest.raises(AttributeError, match="immutable"):
        twin.spare = None
