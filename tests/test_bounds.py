"""Exact bound arithmetic, digit-count handling, and bound reports."""

import hashlib
import math
import sys

import pytest

import richwords.bounds as bounds
from richwords import (
    DEFAULT_DIGIT_CAP,
    PreconditionViolation,
    ResourceLimit,
    digit_count,
    ensure_printable,
    flex_count_bound,
    pal_complexity_bound,
    superword_length_bound,
)


# -- exact integer bounds ------------------------------------------------------


def test_flex_count_bound_values():
    assert flex_count_bound(1, 1) == 2
    assert flex_count_bound(1, 2) == 3
    assert flex_count_bound(2, 2) == 98304
    assert flex_count_bound(3, 2) == 4076863488
    assert flex_count_bound(4, 2) == 12884901888
    assert flex_count_bound(1, 3) == 4
    assert flex_count_bound(2, 3) == 7558272


def test_pal_complexity_bound_values():
    assert pal_complexity_bound(1, 2) == 3
    assert pal_complexity_bound(2, 2) == 49152
    assert pal_complexity_bound(3, 2) == 1358954496
    assert pal_complexity_bound(1, 3) == 4
    assert pal_complexity_bound(1, 1) == 2


def test_bounds_monotone_in_both_arguments():
    for q in (1, 2, 3, 4):
        for m in range(1, 8):
            assert flex_count_bound(m + 1, q) > flex_count_bound(m, q)
            assert pal_complexity_bound(m + 1, q) > pal_complexity_bound(m, q)
    for m in (1, 2, 5, 8):
        for q in range(1, 4):
            assert flex_count_bound(m, q + 1) > flex_count_bound(m, q)
            assert pal_complexity_bound(m, q + 1) > pal_complexity_bound(m, q)


def test_flex_bound_dominates_per_length_sum():
    for q in (1, 2, 3, 4):
        total = 0
        for n in range(1, 65):
            total += pal_complexity_bound(n, q)
            assert total <= flex_count_bound(n, q), (n, q)


def test_bound_argument_validation():
    for fn in (flex_count_bound, pal_complexity_bound):
        with pytest.raises(PreconditionViolation):
            fn(0, 2)
        with pytest.raises(PreconditionViolation):
            fn(2, 0)
        with pytest.raises(PreconditionViolation):
            fn(-1, 2)
        with pytest.raises(PreconditionViolation):
            fn(2.5, 2)


# -- digit counting without str() ------------------------------------------------


def test_digit_count_matches_str_for_printable_values():
    for n in list(range(1, 2000)) + [10**14 - 1, 10**14, 10**15 - 1, 10**15]:
        assert digit_count(n) == len(str(n)), n
    for k in range(1, 16):
        for n in (10**k - 1, 10**k, 10**k + 1):
            assert digit_count(n) == len(str(n)), n
    # a bool counts as its integer, not as the letters of its name
    assert digit_count(True) == 1
    for k in (16, 20, 100, 1000, 4000):
        for n in (10**k - 1, 10**k, 10**k + 1, 3 * 10**k + 7):
            assert digit_count(n) == len(str(n)), (k, n % 100)


def test_digit_count_handles_values_str_would_reject():
    # 10**5000 exceeds the interpreter's default int-to-str guard of 4300.
    assert digit_count(10**5000) == 5001
    assert digit_count(10**5000 - 1) == 5000
    assert digit_count(7 * 10**9999) == 10000


def test_digit_count_rejects_what_is_not_a_positive_integer():
    # str() would count the sign and the point: 2 digits for -5, 3 for 1.5.
    for n in (-5, 0, 1.5):
        with pytest.raises(PreconditionViolation):
            digit_count(n)


def test_ensure_printable_lifts_the_str_guard():
    ensure_printable(10_001)
    assert len(str(7 * 10**9999)) == 10000
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is not None:
        assert get() >= 10_003


@pytest.mark.parametrize("digits", [2**31 - 3, 2**31, 10**20])
def test_ensure_printable_lifts_the_guard_as_far_as_the_interpreter_allows(
    digits, str_guard
):
    # the guard is a C int: a count past 2**31 - 3 lifts it altogether (0)
    sys.set_int_max_str_digits(4300)
    ensure_printable(digits)
    assert str_guard() == (2**31 - 1 if digits == 2**31 - 3 else 0)


# -- bound reports -----------------------------------------------------------------


def test_report_small_cases_exact():
    rep = superword_length_bound(1, 2)
    assert rep.flex_bound == 3
    assert rep.length_bound == 32
    assert rep.growth_bound == 16
    assert rep.log10_flex_bound == pytest.approx(0.47712125471966244, rel=1e-12)
    assert rep.log10_length_bound == pytest.approx(1.505149978319906, rel=1e-12)
    assert rep.digit_cap == DEFAULT_DIGIT_CAP

    rep = superword_length_bound(1, 1)
    assert (rep.length_bound, rep.growth_bound) == (16, 8)


def test_report_structure_identities():
    for m, q in ((1, 1), (1, 2), (1, 3), (2, 2)):
        rep = superword_length_bound(m, q)
        assert rep.marker_length == m and rep.alphabet_size == q
        assert rep.flex_bound == flex_count_bound(m, q)
        assert rep.length_bound == m << (rep.flex_bound + 2)
        assert rep.growth_bound == m << (rep.flex_bound + 1)
        assert rep.length_bound == 2 * rep.growth_bound
        assert digit_count(rep.length_bound) == math.floor(rep.log10_length_bound) + 1


def test_report_binary_length_two_is_huge_but_materialized():
    rep = superword_length_bound(2, 2)
    assert rep.flex_bound == 98304
    assert digit_count(rep.length_bound) == 29594
    assert digit_count(rep.growth_bound) == 29594
    assert rep.log10_length_bound == pytest.approx(29593.355783738996, rel=1e-12)


def test_report_over_cap_reports_logs_only():
    rep = superword_length_bound(4, 2)
    assert rep.flex_bound == 12884901888
    assert rep.length_bound is None
    assert rep.growth_bound is None
    assert rep.log10_length_bound == pytest.approx(3878741960.679583, rel=1e-12)
    assert math.isfinite(rep.log10_flex_bound)


def test_report_respects_custom_digit_cap():
    rep = superword_length_bound(2, 2, digit_cap=100)
    assert rep.flex_bound == 98304
    assert rep.length_bound is None and rep.growth_bound is None
    rep = superword_length_bound(2, 2, digit_cap=3)
    assert rep.flex_bound is None


def test_report_require_exact_raises_over_cap():
    with pytest.raises(ResourceLimit):
        superword_length_bound(4, 2, require_exact=True)
    with pytest.raises(ResourceLimit):
        superword_length_bound(2, 2, digit_cap=100, require_exact=True)
    rep = superword_length_bound(2, 2, require_exact=True)
    assert rep.length_bound is not None


def test_report_real_exponent_log_never_exceeds_exact():
    for m, q in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (5, 3)):
        rep = superword_length_bound(m, q)
        exact_log = math.log10(flex_count_bound(m, q))
        assert rep.log10_flex_bound <= exact_log + 1e-9, (m, q)
        if m & (m - 1) == 0:
            assert rep.log10_flex_bound == pytest.approx(exact_log, rel=1e-12)


def test_report_validation_and_record():
    with pytest.raises(PreconditionViolation):
        superword_length_bound(0, 2)
    with pytest.raises(PreconditionViolation):
        superword_length_bound(2, 0)
    with pytest.raises(PreconditionViolation):
        superword_length_bound(2, 2, digit_cap=0)
    rec = superword_length_bound(1, 2).to_record()
    assert rec == {
        "marker_length": 1,
        "alphabet_size": 2,
        "flex_bound": 3,
        "length_bound": 32,
        "growth_bound": 16,
        "log10_flex_bound": pytest.approx(0.47712125471966244),
        "log10_length_bound": pytest.approx(1.505149978319906),
        "digit_cap": DEFAULT_DIGIT_CAP,
    }


def _report_digest():
    """sha256 over the reports (or ResourceLimit messages) of a sweep of
    marker lengths, alphabet sizes and digit caps, with and without
    ``require_exact``. Exact integers are hashed in hex, which no str guard
    limits."""
    ms = [*range(1, 130), *(2**k for k in range(7, 40))]
    ms += [*(2**k + 1 for k in range(7, 40)), *(10**k for k in range(3, 40))]
    caps = [1, 2, 5, 50, 300, 308, 309, 310, 311, 1000, 100_000]
    fields = ("marker_length", "alphabet_size", "flex_bound", "length_bound",
              "growth_bound", "log10_flex_bound", "log10_length_bound", "digit_cap")
    enc = lambda x: hex(x) if isinstance(x, int) else repr(x)
    h = hashlib.sha256()
    calls = 0
    for q in (1, 2, 3, 4, 7):
        for m in ms:
            for cap in caps:
                for exact in (False, True):
                    try:
                        rep = superword_length_bound(m, q, cap, exact)
                        out = "|".join(enc(getattr(rep, f)) for f in fields)
                    except ResourceLimit as exc:
                        out = f"ResourceLimit:{exc}"
                    h.update(out.encode() + b"\n")
                    calls += 1
    return calls, h.hexdigest()


def test_report_sweep_is_pinned():
    # Pinned from the implementation that built the exact flex bound on
    # every call; the reports that skip it must not differ.
    assert _report_digest() == (
        25520, "09fbd862e248cb036c4240e8d6a4b1e1cf1dad75076ede7a206c9db44e054a47"
    )


def test_report_past_the_cap_does_not_build_the_flex_bound(monkeypatch):
    # Building k for m = 10**3000 alone takes minutes; the report it would
    # give is known without it.
    def refuse(*args):
        raise AssertionError("flex bound built")

    monkeypatch.setattr(bounds, "flex_count_bound", refuse)
    rep = superword_length_bound(10**3000, 2)
    assert (rep.flex_bound, rep.length_bound, rep.growth_bound) == (None, None, None)
    assert rep.log10_length_bound == math.inf
    assert math.isfinite(rep.log10_flex_bound)
    # the digit count the exact k gives (3,336,001 digits for m = 10**1000)
    with pytest.raises(ResourceLimit, match="needs 3336001 digits, over the cap of 100000"):
        superword_length_bound(10**1000, 2, require_exact=True)
