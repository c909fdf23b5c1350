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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import InternalInconsistency, PreconditionViolation
from .palindromes import PalIndex, is_rich, require_rich
from .reduction import (
    ReduciblePair,
    ReductionTrace,
    _conditions,
    _flex_scan,
    _reduce,
    _guarantee_checks,
)
from .words import Word, occ_starts, occ_str

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
class EliminationStep:
    """One loop pass: the rewrite at ``target`` followed by re-trimming."""

    before: Word
    target: Word
    reduction: ReductionTrace
    after: Word

    def to_record(self) -> dict:
        return {
            "before": self.before.chars,
            "target": self.target.chars,
            "reduction": self.reduction.to_record(),
            "after": self.after.chars,
        }


@dataclass(frozen=True)
class EliminationTrace:
    """Full history of one elimination run."""

    word: Word
    start: Word
    end: Word
    initial: Word  # the word after the first marker trim, before any rewrite
    steps: tuple[EliminationStep, ...]
    final: Word
    iterations: int

    def to_record(self) -> dict:
        return {
            "word": self.word.chars,
            "start": self.start.chars,
            "end": self.end.chars,
            "initial": self.initial.chars,
            "steps": [step.to_record() for step in self.steps],
            "final": self.final.chars,
            "iterations": self.iterations,
        }


def _marked_span(s: str, p1: str, p2: str) -> tuple[int, int]:
    """Bounds of the first factor of ``s`` carrying both markers once.

    Candidates are ordered by length ascending, then start ascending; a
    candidate must begin with ``p1`` or its reverse, end with ``p2`` or its
    reverse, and contain each marker (orientations pooled) exactly once.
    """
    r1, r2 = p1[::-1], p2[::-1]
    heads = (p1,) if p1 == r1 else (p1, r1)
    tails = (p2,) if p2 == r2 else (p2, r2)
    starts = {p: occ_starts(s, p) for p in set(heads) | set(tails)}
    len1, len2 = len(p1), len(p2)
    n = len(s)

    def pooled_count(patterns, lo: int, hi: int, plen: int) -> int:
        # occurrences fully inside s[lo:hi], both orientations pooled
        total = 0
        for p in patterns:
            occ = starts[p]
            total += bisect_right(occ, hi - plen) - bisect_left(occ, lo)
        return total

    for length in range(max(len1, len2), n + 1):
        for i in range(n - length + 1):
            j = i + length
            if not (s.startswith(p1, i) or s.startswith(r1, i)):
                continue
            if not (s.startswith(p2, j - len2) or s.startswith(r2, j - len2)):
                continue
            if pooled_count(heads, i, j, len1) != 1:
                continue
            if pooled_count(tails, i, j, len2) != 1:
                continue
            return i, j
    # Reachable for overlapping markers (e.g. one marker inside the other):
    # every window carrying the second marker then repeats the first, so no
    # factor can hold both exactly once.
    raise PreconditionViolation(
        f"no factor of {s!r} carries markers {p1!r}, {p2!r} reverse-unioccurrently"
    )


def shortest_marked_factor(w: Word, start: Word, end: Word) -> Word:
    """The first factor of ``w`` carrying both markers reverse-unioccurrently.

    Candidates must begin with ``start`` or its reverse, end with ``end`` or
    its reverse, and contain each marker (orientations pooled) exactly once;
    ties are broken by length ascending, then start position ascending. The
    word itself must begin and end with the respective markers up to
    reversal. Factors of a rich word are rich, so the result is rich.
    """
    if len(start.chars) == 0 or len(end.chars) == 0:
        raise PreconditionViolation("markers must be nonempty")
    for label, x in (("word", w), ("start marker", start), ("end marker", end)):
        if not is_rich(x):
            raise PreconditionViolation(f"{label} {x.chars!r} is not rich")
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
    scan = _flex_scan(w.chars, idx)
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
    cap = sum(occ_str(s, pal) for pal in _flex_scan(s, idx))

    i, j = _marked_span(s, p1, p2)
    res = w[i:j]
    _assert_markers(res, start, end)
    initial = res
    steps: list[EliminationStep] = []
    iterations = 0
    while True:
        idx = PalIndex.of_word(res)
        if not idx.rich:
            raise InternalInconsistency(
                f"elimination state {res.chars!r} is not rich"
            )
        scan = _flex_scan(res.chars, idx)
        pick = _pick_reducible(res, m, idx, scan)
        if pick is None:
            break
        iterations += 1
        if iterations > cap:
            raise InternalInconsistency(
                f"elimination of {s!r} exceeded its iteration cap {cap}"
            )
        before = res
        reduction = _reduce(pick, idx)
        _guarantee_checks(res, pick.target, scan, reduction)
        rs = reduction.result.chars
        i, j = _marked_span(rs, p1, p2)
        res = reduction.result[i:j]
        _assert_markers(res, start, end)
        steps.append(
            EliminationStep(
                before=before,
                target=pick.target,
                reduction=reduction,
                after=res,
            )
        )
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
