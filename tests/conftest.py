"""Shared fixtures: small brute-force corpora and larger enumerated ones.

The small corpora come from the naive oracle (filter every word), so tests
against them are independent of the package's own enumeration. The large
corpora come from the package enumerator and are used by the acceptance
tests whose first job is to prove that enumerator correct against the naive
filter at overlapping sizes.
"""

from __future__ import annotations

import sys

import pytest

import oracles


@pytest.fixture(scope="session")
def rich2():
    """All rich binary words of length <= 10, by naive filter."""
    return oracles.rich_words(2, 10)


@pytest.fixture(scope="session")
def rich3():
    """All rich ternary words of length <= 6, by naive filter."""
    return oracles.rich_words(3, 6)


@pytest.fixture(scope="session")
def corpus2():
    """All rich binary words of length <= 18, from the package enumerator."""
    from richwords import EnumConfig, enumerate_rich

    return [w.chars for w in enumerate_rich(EnumConfig(2, 18))]


@pytest.fixture(scope="session")
def corpus3():
    """All rich ternary words of length <= 12, from the package enumerator."""
    from richwords import EnumConfig, enumerate_rich

    return [w.chars for w in enumerate_rich(EnumConfig(3, 12))]


@pytest.fixture
def str_guard():
    """The interpreter's int-to-str digit guard reader, the guard restored
    after the test; skips where the interpreter has no guard."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        pytest.skip("this interpreter has no int-to-str digit guard")
    saved = get()
    yield get
    sys.set_int_max_str_digits(saved)
