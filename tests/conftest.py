"""Shared pytest configuration (keeps tests/ importable as plain modules)."""

import pytest

import slabshift.shift


@pytest.fixture(autouse=True)
def cold_w_caches():
    """Start every test with no W pair and no cell geometry kept, so its
    counts and values do not depend on which tests ran before it."""
    slabshift.shift._s_pair.cache_clear()
    slabshift.shift._geometry_memo.cache_clear()
