"""Packed binary word codes: order, concatenation, reversal, push."""

from __future__ import annotations

import doctest

import pytest

import oracles
from dskrv import words


def test_module_doctests():
    failures, _ = doctest.testmod(words)
    assert failures == 0


def test_doctests_are_found_behind_the_cache_wrappers():
    found = {t.name for t in doctest.DocTestFinder().find(words) if t.examples}
    assert {"dskrv.words.exponents_of", "dskrv.words.push_code"} <= found


def test_letter_constants():
    assert words.EMPTY == 1
    assert words.str_from_code(words.X_CODE) == "x"
    assert words.str_from_code(words.Y_CODE) == "y"


@pytest.mark.parametrize("n", range(13))
def test_string_roundtrip_all_words(n):
    for code in words.all_words(n):
        s = words.str_from_code(code)
        assert len(s) == n
        assert words.code_from_str(s) == code


def test_degree_and_depth():
    code = words.code_from_str("xxyxy")
    assert words.degree(code) == 5
    assert words.depth(code) == 2
    assert words.degree(words.EMPTY) == 0
    assert words.depth(words.EMPTY) == 0


def test_code_order_is_degree_then_lex():
    # shorter words sort first, then lexicographically with x < y
    codes = [words.code_from_str(s) for s in ["x", "y", "xx", "xy", "yx", "yy", "xxx"]]
    assert codes == sorted(codes)


def test_concat():
    a = words.code_from_str("xy")
    b = words.code_from_str("y")
    assert words.concat_codes(a, b) == words.code_from_str("xyy")
    assert words.concat_codes(words.EMPTY, a) == a
    assert words.concat_codes(a, words.EMPTY) == a


def test_powers_and_predicates():
    assert words.str_from_code(words.x_power(3)) == "xxx"
    assert words.str_from_code(words.y_power(2)) == "yy"
    assert words.ends_in_y(words.code_from_str("xxy"))
    assert not words.ends_in_y(words.code_from_str("xyx"))
    assert words.starts_with_y(words.code_from_str("yx"))
    assert words.is_power_of_y(words.code_from_str("yyy"))
    assert not words.is_power_of_y(words.code_from_str("yxy"))


def test_exponent_tuple_roundtrip():
    # word x^{e0} y x^{e1} y ... y x^{er} <-> exponent tuple (e0..er)
    code = words.code_from_str("xxyxy")
    assert words.exponents_of(code) == (2, 1, 0)
    assert words.code_from_exponents((2, 1, 0)) == code
    assert words.exponents_of(words.code_from_str("xxx")) == (3,)
    for n in range(1, 8):
        for c in words.all_words(n):
            assert words.code_from_exponents(words.exponents_of(c)) == c


def test_reversal():
    assert words.anti_code(words.code_from_str("xxy")) == words.code_from_str("yxx")
    assert words.anti_code(words.code_from_str("xyx")) == words.code_from_str("xyx")
    for c in words.all_words(6):
        assert words.anti_code(words.anti_code(c)) == c


def test_push_rotates_exponent_tuple():
    # push moves the last exponent block to the front
    c = words.code_from_str("xxyxy")  # exponents (2, 1, 0)
    p = words.push_code(c)
    assert words.exponents_of(p) == (0, 2, 1)
    # frozen orbit (hand computation): depth 2 word has a 3-element orbit
    orbit = [words.str_from_code(w) for w in words.push_orbit(c)]
    assert orbit == ["xxyxy", "yxxyx", "xyyxx"]
    # orbits list depth+1 entries even when the rotation has a shorter period
    orbit2 = [words.str_from_code(w) for w in words.push_orbit(words.code_from_str("xyxyx"))]
    assert orbit2 == ["xyxyx", "xyxyx", "xyxyx"]


def test_push_orbit_closes():
    for c in words.all_words(6):
        orbit = words.push_orbit(c)
        assert len(orbit) == words.depth(c) + 1
        assert words.push_code(orbit[-1]) == orbit[0] == c


def test_cyclic_min_is_a_rotation_invariant():
    c = words.code_from_str("yxx")
    assert words.str_from_code(words.cyclic_min(c)) == "xxy"
    for w in words.all_words(5):
        m = words.cyclic_min(w)
        s = words.str_from_code(w)
        rotations = {s[i:] + s[:i] for i in range(len(s))}
        assert words.str_from_code(m) == min(rotations)
        assert all(words.cyclic_min(words.code_from_str(r)) == m for r in rotations)


def test_empty_word_is_rejected_by_structural_ops():
    with pytest.raises(ValueError):
        words.anti_code(words.EMPTY)
    with pytest.raises(ValueError):
        words.push_code(words.EMPTY)
    with pytest.raises(ValueError):
        words.exponents_of(words.EMPTY)


@pytest.mark.parametrize("n", range(1, 13))
def test_memoized_word_maps_match_the_string_references(n):
    for code in words.all_words(n):
        assert words.exponents_of(code) == oracles.exponents_by_str(code)
        assert words.anti_code(code) == oracles.anti_by_str(code)
        assert words.push_code(code) == oracles.push_by_str(code)


@pytest.mark.parametrize("op", [words.exponents_of, words.anti_code, words.push_code])
def test_memoized_word_maps_cache_no_error(op):
    for _ in range(2):
        with pytest.raises(ValueError):
            op(words.EMPTY)


def test_as_code_takes_a_string_or_a_code():
    assert words.as_code("xy") == words.code_from_str("xy") == 5
    assert words.as_code(6) == 6
    for bad in (0, -3, "xz"):
        with pytest.raises(ValueError):
            words.as_code(bad)
    for bad in (1.5, None, (0, 1)):
        with pytest.raises(TypeError):
            words.as_code(bad)
