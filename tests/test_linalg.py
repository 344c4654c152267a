"""Exact elimination: both kernels agree and the rational layer is exact."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dskrv import linalg
from dskrv._kernels import pure

try:
    from dskrv._kernels import _ffge as compiled
except ImportError:  # pragma: no cover - environment without the extension
    compiled = None

KERNELS = [pure] + ([compiled] if compiled is not None else [])


def random_int_matrix(rng, nrows, ncols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.IMPLEMENTATION)
def test_kernel_echelon_hand_matrix(kernel):
    rows = [[2, 4, 6], [1, 2, 4], [0, 0, 1]]
    ech, pivots = kernel.row_echelon(rows, 3)
    assert pivots == [0, 2]
    # echelon rows stay integer and reproduce the row space rank
    assert all(isinstance(v, int) for r in ech for v in r)
    assert rows == [[2, 4, 6], [1, 2, 4], [0, 0, 1]]  # input untouched


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
@pytest.mark.parametrize("seed", range(12))
def test_kernels_agree_on_random_matrices(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 12)
    ncols = rng.randint(1, 10)
    rows = random_int_matrix(rng, nrows, ncols)
    assert pure.row_echelon(rows, ncols) == compiled.row_echelon(rows, ncols)


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_kernels_agree_beyond_machine_words():
    # entries past 2**63 must fall back to exact big-integer arithmetic
    rows = [[2**70, 1, 0], [3, 2**68, 5], [1, 1, 1]]
    assert pure.row_echelon(rows, 3) == compiled.row_echelon(rows, 3)


def test_pure_kernel_forced_by_environment():
    env = {"DSKRV_PURE": "1", "PATH": "/usr/bin:/bin"}
    if "PYTHONPATH" in os.environ:  # how an uninstalled checkout finds dskrv
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", "from dskrv import linalg; print(linalg.KERNEL)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"


def test_integerize_row():
    row = [Fraction(1, 2), Fraction(1, 3), 1]
    assert linalg.integerize_row(row) == [3, 2, 6]
    assert linalg.integerize_row([1, -2]) == [1, -2]


def test_rank():
    assert linalg.rank([[1, 2], [2, 4]], 2) == 1
    assert linalg.rank([[1, 0], [0, 1]], 2) == 2
    assert linalg.rank([], 4) == 0
    assert linalg.rank([[Fraction(1, 2), 1], [1, 2]], 2) == 1


def test_nullspace_is_exact_and_canonical():
    rows = [[1, 1, 1], [1, 2, 3]]
    basis = linalg.nullspace(rows, 3)
    assert basis == [[Fraction(1), Fraction(-2), Fraction(1)]]
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    # full-rank system has empty nullspace
    assert linalg.nullspace([[1, 0], [0, 1]], 2) == []
    # zero matrix: identity basis in rref order
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_annihilates_random_systems(seed):
    rng = random.Random(100 + seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(2, 8)
    rows = random_int_matrix(rng, nrows, ncols)
    basis = linalg.nullspace(rows, ncols)
    assert len(basis) == ncols - linalg.rank(rows, ncols)
    for v in basis:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


def test_solve():
    sol = linalg.solve([[2, 0], [0, 4]], [1, 1], 2)
    assert sol == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1], 2) is None
    # underdetermined: returned solution must satisfy the system
    rows, rhs = [[1, 2, 3]], [6]
    sol = linalg.solve(rows, rhs, 3)
    assert sum(a * b for a, b in zip(rows[0], sol)) == 6


def test_rref_canonical_form():
    rows = [[2, 4, 6], [1, 2, 4]]
    red = linalg.rref(rows, 3)
    assert red == [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    # idempotent
    assert linalg.rref(red, 3) == red


def test_primitive():
    assert linalg.primitive([Fraction(-1, 2), Fraction(-3, 2)]) == [1, 3]
    assert linalg.primitive([Fraction(2), Fraction(4)]) == [1, 2]
