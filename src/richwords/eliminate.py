"""Shrinking a rich word until no long flexed palindrome remains.

The pipeline keeps a designated start marker as a prefix and end marker as a
suffix (each up to reversal) while repeatedly rewriting away the longest
reducible flexed palindromes. Between rewrites the word is re-trimmed to its
shortest factor in which both markers are reverse-unioccurrent, i.e. marker
and reversed marker together occur exactly once.

The result is rich, still carries both markers, and — whenever every maximal
flexed palindrome stays reducible — has no flexed palindrome longer than the
longest marker. The checked rewrite and the target picker live in
``reduction``; this module trims to the marked window and drives the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, PreconditionViolation, _require_int
from .palindromes import PalIndex, _analysis, _keep, _move, _owned
from .reduction import ReductionTrace, _pick_reducible, _rewrite
from .words import Word, _Record, occ_str

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
    The tails are visited in order by ``str.find`` and each one's head is
    one ``str.rfind`` per head orientation, between the previous tail and j,
    so the scans run at C speed and build no occurrence list. A palindromic
    marker (every single letter) is searched once; the two orientations of
    any other never start at the same position.
    """
    r1, r2 = p1[::-1], p2[::-1]
    len2 = len(p2)
    find, rfind = s.find, s.rfind
    best = None
    prev = -1
    # the next start, at or after the current tail, of each tail orientation
    a = find(p2)
    b = -1 if r2 == p2 else find(r2)
    while a >= 0 or b >= 0:
        if b < 0 or 0 <= a < b:
            t = a
            a = find(p2, t + 1)
        else:
            t = b
            b = find(r2, t + 1)
        j = t + len2
        h = rfind(p1, prev + 1, j)
        if r1 != p1:
            h = max(h, rfind(r1, prev + 1, j))
        if 0 <= h <= t and (best is None or (j - h, h) < best):
            best = (j - h, h)
        prev = t
    if best is None:
        # Reachable for overlapping markers (e.g. one marker inside the
        # other): every window carrying the second marker then repeats the
        # first, so no factor can hold both exactly once.
        raise PreconditionViolation(
            f"no factor of {s!r} carries markers {p1!r}, {p2!r} reverse-unioccurrently"
        )
    length, i = best
    return i, i + length


def _check_markers(s: str, p1: str, p2: str, error=PreconditionViolation) -> None:
    """The marker rule, raising ``error``: both markers are nonempty, and
    ``s`` begins with ``p1`` and ends with ``p2``, each up to reversal. A
    marked window keeps both, so ``_trim`` raises ``InternalInconsistency``."""
    if not p1 or not p2:
        raise error("markers must be nonempty")
    if not (s.startswith(p1) or s.startswith(p1[::-1])):
        raise error(
            f"{s!r} does not begin with the start marker {p1!r} or its reverse"
        )
    if not (s.endswith(p2) or s.endswith(p2[::-1])):
        raise error(
            f"{s!r} does not end with the end marker {p2!r} or its reverse"
        )


def shortest_marked_factor(w: Word, start: Word, end: Word) -> Word:
    """The first factor of ``w`` carrying both markers reverse-unioccurrently.

    Candidates must begin with ``start`` or its reverse, end with ``end`` or
    its reverse, and contain each marker (orientations pooled) exactly once;
    ties are broken by length ascending, then start position ascending. The
    markers must be nonempty and at the word's ends up to reversal, checked
    before the word's richness. Factors of a rich word are rich, so the
    result is rich; so are the markers once the word is known to be rich
    and to carry them, which is why only the word's richness is checked. A
    window that is the whole word is ``w`` itself, with the analysis the
    check kept on it for the ``eliminate`` that usually follows.
    """
    s, p1, p2 = w.chars, start.chars, end.chars
    _check_markers(s, p1, p2)
    _analysis(w)
    i, j = _marked_span(s, p1, p2)
    return w if j - i == len(s) else w[i:j]


def maximal_reducible(w: Word, floor: int) -> Word:
    """The longest reducible flexed palindrome of ``w`` longer than ``floor``.

    Returns the empty word when no candidate qualifies.
    """
    _require_int(floor, "floor")
    pick = _pick_reducible(w, floor, _analysis(w)[1])
    return w._wrap("") if pick is None else pick.target


def _trim(
    idx: PalIndex, scan: dict, w: Word, start: Word, end: Word
) -> tuple[Word, dict]:
    """Trim ``w`` to its marked window, which must keep both markers. Moves
    ``idx`` (``w``'s index, flex scan ``scan``) there; returns window, scan.

    A word that is its own marked window stays as it is, with its index and
    scan, just as ``shortest_marked_factor`` returns it.
    """
    p1, p2 = start.chars, end.chars
    i, j = _marked_span(w.chars, p1, p2)
    if j - i == len(w.chars):
        return w, scan
    res = w[i:j]
    _check_markers(res.chars, p1, p2, InternalInconsistency)
    return res, _move(idx, scan, w.chars, res.chars)


def eliminate(w: Word, start: Word, end: Word) -> tuple[Word, EliminationTrace]:
    """Rewrite away every reducible flexed palindrome longer than the markers.

    Takes the markers as ``shortest_marked_factor`` does, at the ends of the
    rich word ``w`` up to reversal (so both are rich). Loops: trim to the
    shortest reverse-unioccurrent factor, then while some flexed palindrome
    longer than max(|start|, |end|) is reducible, rewrite it away and
    re-trim. The loop count is capped by the total number of
    flexed-palindrome occurrences in the input.
    """
    s = w.chars
    _check_markers(s, start.chars, end.chars)
    idx, w_scan = _owned(w)
    m = max(len(start.chars), len(end.chars))
    # Every flexed palindrome of the input occurs in it, so the cap is at
    # least len(w_scan); it is summed only once the loop gets past that.
    cap = None

    res, scan = _trim(idx, w_scan, w, start, end)
    initial = res
    steps: list[EliminationStep] = []
    iterations = 0
    while True:
        if not idx.rich:
            raise InternalInconsistency(
                f"elimination state {res.chars!r} is not rich"
            )
        pick = _pick_reducible(res, m, scan)
        if pick is None:
            break
        iterations += 1
        if iterations > len(w_scan):
            if cap is None:
                cap = sum(occ_str(s, pal) for pal in w_scan)
            if iterations > cap:
                raise InternalInconsistency(
                    f"elimination of {s!r} exceeded its iteration cap {cap}"
                )
        reduction, res_scan = _rewrite(idx, scan, pick)
        res, scan = _trim(idx, res_scan, reduction.result, start, end)
        steps.append(
            EliminationStep(
                before=pick.word,
                target=pick.target,
                reduction=reduction,
                after=res,
            )
        )
    # The loop's last richness check passed on res, and nothing moves idx
    # again, so res keeps it as its analysis.
    _keep(res, idx, scan)
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
