"""Shared fixtures: cached low-weight basis elements and generators."""

from __future__ import annotations

import pytest
from hypothesis import settings

from dskrv import dshuffle

# Property tests draw the same examples on every run and replay no examples
# saved by an earlier run, so every run of the suite checks the same cases.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def basis_cache():
    """Memoized ds_basis results keyed by weight."""
    cache: dict[int, dshuffle.BasisResult] = {}

    def get(n: int) -> dshuffle.BasisResult:
        if n not in cache:
            cache[n] = dshuffle.ds_basis(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def f3(basis_cache):
    return basis_cache(3).basis[0]


@pytest.fixture(scope="session")
def f5(basis_cache):
    return basis_cache(5).basis[0]
