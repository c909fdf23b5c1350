"""Exact upper bounds for the common-superword construction.

Given two rich words of length at most m over a q-letter alphabet, the
elimination pipeline yields a rich word containing both whose length is at
most m * 2^(k+2), where k bounds how many flexed palindromes such a word can
have. k itself comes from summing a per-length palindromic complexity bound.

The source formulas carry a real exponent log2(m); this module computes
exact integers with the exponent rounded up to ceil(log2 m), which can only
enlarge an upper bound, and reports real-exponent values as base-10
logarithm estimates. The final length bound is astronomically large for all
but tiny m, so its exact form is only materialized below a digit cap.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ResourceLimit, _require_int
from .words import _Record

__all__ = [
    "DEFAULT_DIGIT_CAP",
    "BoundReport",
    "digit_count",
    "ensure_printable",
    "pal_complexity_bound",
    "flex_count_bound",
    "superword_length_bound",
]

DEFAULT_DIGIT_CAP = 100_000


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def digit_count(n: int) -> int:
    """Decimal digits of a positive integer; anything else raises
    ``PreconditionViolation``.

    Avoids str() so the interpreter's integer-to-string size guard (4300
    digits by default) cannot reject values that are merely large.
    """
    _require_int(n, "n")
    return _digits(n)[0]


def _digits(n: int) -> tuple[int, int]:
    """The digit count d of the positive integer ``n``, and 10**(d-1).

    One large power, from the estimate d ~ bits * log10(2), then steps of
    x10 or //10 to correct it; a number between n/10 and n reads its own
    count off the returned power.
    """
    d = max(1, int(n.bit_length() * 0.30102999566398114))
    low = 10 ** (d - 1)
    while low > n:
        low //= 10
        d -= 1
    while low * 10 <= n:
        low *= 10
        d += 1
    return d, low


def ensure_printable(digits: int) -> None:
    """Lift the interpreter's int-to-str guard to cover ``digits`` digits.

    Formatting entry points call this before rendering exact bound values,
    which can run to tens of thousands of digits while staying legitimate.
    Past the largest guard the interpreter takes, it sets 0: no limit.
    """
    _require_int(digits, "digits", lo=0)
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        return
    current = get()
    if current != 0 and current < digits + 2:
        try:
            sys.set_int_max_str_digits(digits + 2)
        except OverflowError:
            sys.set_int_max_str_digits(0)


def pal_complexity_bound(length: int, alphabet_size: int) -> int:
    """Upper bound on the number of rich words of the given length over a
    q-letter alphabet in which every flexed palindrome is shorter than the
    word itself — the per-length ingredient of the flex-count bound.

    Exact integer; exponent rounded up to ceil(log2 length).
    """
    _require_int(length, "length")
    _require_int(alphabet_size, "alphabet size")
    q = alphabet_size
    return (q + 1) * length * (4 * q**10 * length) ** _ceil_log2(length)


def flex_count_bound(marker_length: int, alphabet_size: int) -> int:
    """Upper bound on the number of distinct flexed palindromes of length at
    most ``marker_length`` that one rich word can contain.

    Exact integer: ``marker_length`` times ``pal_complexity_bound`` at
    ``marker_length``, which dominates that bound's sum over lengths
    1..marker_length.
    """
    _require_int(marker_length, "marker length")
    _require_int(alphabet_size, "alphabet size")
    return marker_length * pal_complexity_bound(marker_length, alphabet_size)


def _log10_pow2(exponent: int, factor: int) -> float:
    """log10(factor * 2^exponent) as a float, inf when it overflows."""
    try:
        return math.log10(factor) + exponent * math.log10(2.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundReport(_Record):
    """Exact and estimated bounds for one (marker length, alphabet) pair.

    ``flex_bound`` is the flexed-palindrome count bound, ``length_bound`` the
    final superword length bound marker_length * 2^(flex_bound+2), and
    ``growth_bound`` the intermediate marker_length * 2^(flex_bound+1) that
    caps any single marker-preserving extension. Exact fields are None when
    their decimal expansion would exceed ``digit_cap`` digits.

    ``log10_flex_bound`` estimates the source formula with its true real
    exponent, so it can sit below log10 of the exact (rounded-up) integer;
    ``log10_length_bound`` uses the exact flex bound and therefore matches
    ``length_bound``'s digit count whenever the latter is materialized.
    """

    marker_length: int
    alphabet_size: int
    flex_bound: int | None
    length_bound: int | None
    growth_bound: int | None
    log10_flex_bound: float
    log10_length_bound: float
    digit_cap: int


def superword_length_bound(
    marker_length: int,
    alphabet_size: int,
    digit_cap: int = DEFAULT_DIGIT_CAP,
    require_exact: bool = False,
) -> BoundReport:
    """Full bound report for rich words of length ≤ marker_length.

    With ``require_exact`` the call raises ``ResourceLimit`` instead of
    returning None fields when an exact integer would exceed ``digit_cap``
    decimal digits.
    """
    _require_int(marker_length, "marker length")
    _require_int(alphabet_size, "alphabet size")
    _require_int(digit_cap, "digit cap")
    m, q = marker_length, alphabet_size

    def log10_k(exponent: float) -> float:
        return (
            math.log10(q + 1)
            + 2 * math.log10(m)
            + exponent * math.log10(4 * q**10 * m)
        )

    def materialize(value: int | None, digits: int, label: str) -> int | None:
        if digits <= digit_cap:
            return value
        if require_exact:
            raise ResourceLimit(
                f"exact {label} needs {digits} digits, over the cap of {digit_cap}"
            )
        return None

    log10_k_real = log10_k(math.log2(m))
    # The exact flex bound's log10, from floats. Past max(cap, 310) + 1 its
    # digits exceed the cap and k + 2 overflows a float: the report is the
    # same without building k, which for m = 10**2000 takes seconds.
    log10_k_ceil = log10_k(_ceil_log2(m))
    if log10_k_ceil < max(digit_cap, 310) + 1:
        k = flex_count_bound(m, q)
        k_exact = materialize(k, digit_count(k), "flex bound")
        log10_total = _log10_pow2(k + 2, m)
    else:
        k_exact = materialize(None, int(log10_k_ceil) + 1, "flex bound")
        log10_total = math.inf
    # Predict the length bound's digit count before shifting 2^(k+2): the
    # shift itself is infeasible whenever the result would not fit the cap.
    if log10_total < digit_cap + 2:
        length = m << (k + 2)
        digits, low = _digits(length)
        length_exact = materialize(length, digits, "length bound")
        # the growth bound is half the length bound: as long, or a digit shorter
        growth = length >> 1
        growth_exact = materialize(growth, digits - (growth < low), "growth bound")
    elif require_exact:
        raise ResourceLimit(
            f"exact length bound needs about {log10_total:.6g} digits, "
            f"over the cap of {digit_cap}"
        )
    else:
        length_exact = None
        growth_exact = None

    return BoundReport(
        marker_length=m,
        alphabet_size=q,
        flex_bound=k_exact,
        length_bound=length_exact,
        growth_bound=growth_exact,
        log10_flex_bound=log10_k_real,
        log10_length_bound=log10_total,
        digit_cap=digit_cap,
    )
