"""Shrinking a rich word until no long flexed palindrome remains.

The pipeline keeps a designated start marker as a prefix and end marker as a
suffix (each up to reversal) while repeatedly rewriting away the longest
reducible flexed palindromes. Between rewrites the word is re-trimmed to its
shortest factor in which both markers are reverse-unioccurrent, i.e. marker
and reversed marker together occur exactly once.

The result is rich, still carries both markers, and — whenever every maximal
flexed palindrome stays reducible — has no flexed palindrome longer than the
longest marker.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InternalInconsistency, PreconditionViolation
from .palindromes import PalIndex, is_rich, require_rich
from .reduction import (
    ReduciblePair,
    ReductionTrace,
    _conditions,
    _flex_scan,
    _move,
    _reduce,
    _guarantee_checks,
)
from .words import Word, _Record, occ_starts, occ_str

__all__ = [
    "EliminationStep",
    "EliminationTrace",
    "reverse_unioccurrent",
    "shortest_marked_factor",
    "maximal_reducible",
    "eliminate",
]


def reverse_unioccurrent(w: Word, u: Word) -> bool:
    """True when ``u`` and its reverse together occur exactly once in ``w``.

    A palindromic ``u`` is counted once, not twice.
    """
    s, p = w.chars, u.chars
    total = occ_str(s, p)
    if total > 1:
        return False
    r = p[::-1]
    if r != p:
        total += occ_str(s, r)
    return total == 1


@dataclass(frozen=True)
class EliminationStep(_Record):
    """One loop pass: the rewrite at ``target`` followed by re-trimming."""

    before: Word
    target: Word
    reduction: ReductionTrace
    after: Word


@dataclass(frozen=True)
class EliminationTrace(_Record):
    """Full history of one elimination run."""

    word: Word
    start: Word
    end: Word
    initial: Word  # the word after the first marker trim, before any rewrite
    steps: tuple[EliminationStep, ...]
    final: Word
    iterations: int


def _marked_span(s: str, p1: str, p2: str) -> tuple[int, int]:
    """Bounds of the first factor of ``s`` carrying both markers once.

    Candidates are ordered by length ascending, then start ascending; a
    candidate must begin with ``p1`` or its reverse, end with ``p2`` or its
    reverse, and contain each marker (orientations pooled) exactly once.

    Each tail occurrence t ends at most one candidate, at j = t + |p2|: it
    must start at the last head h with h + |p1| <= j (an earlier start holds
    that head too) and hold no other tail (h <= t, previous tail before h).
    One pass over the tails, a bisect each: O(n log n) after the O(n) scans.
    A palindromic marker (every single letter) is scanned once; the two
    orientations of any other never start at the same position.
    """
    heads, tails = (
        occ_starts(s, p) if p == p[::-1]
        else sorted(occ_starts(s, p) + occ_starts(s, p[::-1]))
        for p in (p1, p2)
    )
    len1, len2 = len(p1), len(p2)
    spans = []
    prev = -1
    for t in tails:
        k = bisect_right(heads, t + len2 - len1)
        if k and prev < heads[k - 1] <= t:
            spans.append((t + len2 - heads[k - 1], heads[k - 1]))
        prev = t
    if not spans:
        # Reachable for overlapping markers (e.g. one marker inside the
        # other): every window carrying the second marker then repeats the
        # first, so no factor can hold both exactly once.
        raise PreconditionViolation(
            f"no factor of {s!r} carries markers {p1!r}, {p2!r} reverse-unioccurrently"
        )
    length, i = min(spans)
    return i, i + length


def shortest_marked_factor(w: Word, start: Word, end: Word) -> Word:
    """The first factor of ``w`` carrying both markers reverse-unioccurrently.

    Candidates must begin with ``start`` or its reverse, end with ``end`` or
    its reverse, and contain each marker (orientations pooled) exactly once;
    ties are broken by length ascending, then start position ascending. The
    word itself must begin and end with the respective markers up to
    reversal. Factors of a rich word are rich, so the result is rich; so are
    the markers once the word is known to be rich and to carry them, which
    is why only the word's richness is checked.
    """
    if len(start.chars) == 0 or len(end.chars) == 0:
        raise PreconditionViolation("markers must be nonempty")
    if not is_rich(w):
        raise PreconditionViolation(f"word {w.chars!r} is not rich")
    s = w.chars
    p1, p2 = start.chars, end.chars
    if not (s.startswith(p1) or s.startswith(p1[::-1])):
        raise PreconditionViolation(
            f"{s!r} does not begin with the start marker {p1!r} or its reverse"
        )
    if not (s.endswith(p2) or s.endswith(p2[::-1])):
        raise PreconditionViolation(
            f"{s!r} does not end with the end marker {p2!r} or its reverse"
        )
    i, j = _marked_span(s, p1, p2)
    return w[i:j]


def _pick_reducible(
    w: Word, floor: int, idx: PalIndex, scan: dict
) -> ReduciblePair | None:
    """First reducible flexed palindrome longer than ``floor``, if any.

    Only maximal-length flexed palindromes can pass the reducibility check;
    equal-length candidates are tried in lexicographic order.
    """
    if not scan:
        return None
    longest = max(map(len, scan))
    if longest <= floor:
        return None
    for chars in sorted(p for p in scan if len(p) == longest):
        outcome = _conditions(w, w._wrap(chars), idx, scan)
        if isinstance(outcome, ReduciblePair):
            return outcome
    return None


def maximal_reducible(w: Word, floor: int) -> Word:
    """The longest reducible flexed palindrome of ``w`` longer than ``floor``.

    Returns the empty word when no candidate qualifies.
    """
    if floor < 1:
        raise PreconditionViolation(f"floor must be a positive integer, got {floor}")
    idx = require_rich(w)
    scan = _flex_scan(idx)
    pick = _pick_reducible(w, floor, idx, scan)
    return w._wrap("") if pick is None else pick.target


def _assert_markers(res: Word, start: Word, end: Word) -> None:
    s, p1, p2 = res.chars, start.chars, end.chars
    if not (s.startswith(p1) or s.startswith(p1[::-1])):
        raise InternalInconsistency(
            f"{s!r} lost its start marker {p1!r} during elimination"
        )
    if not (s.endswith(p2) or s.endswith(p2[::-1])):
        raise InternalInconsistency(
            f"{s!r} lost its end marker {p2!r} during elimination"
        )


def eliminate(w: Word, start: Word, end: Word) -> tuple[Word, EliminationTrace]:
    """Rewrite away every reducible flexed palindrome longer than the markers.

    Requires ``start`` to be a prefix and ``end`` a suffix of the rich word
    ``w`` (so both are rich, as factors of a rich word). Loops: trim to the
    shortest reverse-unioccurrent factor, then while some flexed palindrome
    longer than max(|start|, |end|) is reducible, rewrite it away and
    re-trim. The loop count is capped by the total number of
    flexed-palindrome occurrences in the input.
    """
    if len(start.chars) == 0 or len(end.chars) == 0:
        raise PreconditionViolation("markers must be nonempty")
    idx = require_rich(w)
    s = w.chars
    if not s.startswith(start.chars):
        raise PreconditionViolation(
            f"start marker {start.chars!r} is not a prefix of {s!r}"
        )
    if not s.endswith(end.chars):
        raise PreconditionViolation(
            f"end marker {end.chars!r} is not a suffix of {s!r}"
        )
    m = max(len(start.chars), len(end.chars))
    p1, p2 = start.chars, end.chars
    w_scan = _flex_scan(idx)
    cap = None  # summed over w_scan at the first rewrite; most runs make none

    i, j = _marked_span(s, p1, p2)
    res = w[i:j]
    _assert_markers(res, start, end)
    scan = _move(idx, w_scan, res.chars)
    initial = res
    steps: list[EliminationStep] = []
    iterations = 0
    while True:
        if not idx.rich:
            raise InternalInconsistency(
                f"elimination state {res.chars!r} is not rich"
            )
        pick = _pick_reducible(res, m, idx, scan)
        if pick is None:
            break
        iterations += 1
        if cap is None:
            cap = sum(occ_str(s, pal) for pal in w_scan)
        if iterations > cap:
            raise InternalInconsistency(
                f"elimination of {s!r} exceeded its iteration cap {cap}"
            )
        before = res
        reduction, res_scan = _reduce(pick, idx, scan)
        _guarantee_checks(scan, reduction, idx, res_scan)
        i, j = _marked_span(reduction.result.chars, p1, p2)
        res = reduction.result[i:j]
        _assert_markers(res, start, end)
        scan = _move(idx, res_scan, res.chars)
        steps.append(
            EliminationStep(
                before=before,
                target=pick.target,
                reduction=reduction,
                after=res,
            )
        )
    res._rich = True  # the loop's last richness check passed on it
    trace = EliminationTrace(
        word=w,
        start=start,
        end=end,
        initial=initial,
        steps=tuple(steps),
        final=res,
        iterations=iterations,
    )
    return res, trace
