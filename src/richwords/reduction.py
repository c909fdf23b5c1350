"""Flexed palindromes and occurrence-reducing rewrites of rich words.

A step from a prefix u to ub is flexed when b is not the standard letter of
u; the longest palindromic suffix born at a flexed step is a flexed
palindrome of the word. Flexed palindromes are never prefixes, and each one
is strictly shorter than the palindrome the standard step would have created
(its standard replacement).

When a flexed palindrome r satisfies the five reducibility conditions, the
word can be rewritten so that r occurs strictly fewer times while the result
stays rich, keeps long common affixes with the original, and gains no new
flexed palindromes. The rewrite splits the word, then either cuts at the
second-to-last complete return to r (return case) or rebuilds the relevant
prefix from a palindromic closure (closure case). ``reduced_word``,
``reduced_prefix`` and the elimination loop share the one checked rewrite
here; the loop's target picker sits beside the conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    NotReducible,
    NotRich,
    InternalInconsistency,
    NonMaximalRewrite,
    NotAFlexedPalindrome,
)
from .palindromes import (
    PalIndex, _FlexScan, _analysis, _cut, _keep, _move, _owned, is_rich,
)
from .words import Word, _Record, occ_starts, occ_str

__all__ = [
    "FlexRecord",
    "ParseTriple",
    "ReduciblePair",
    "ReductionRejection",
    "ReductionCase",
    "ReductionTrace",
    "flexed_palindromes",
    "standard_replacement",
    "check_reducible",
    "parse",
    "reduced_prefix",
    "reduced_word",
]


@dataclass(frozen=True)
class FlexRecord(_Record):
    """A flexed palindrome, where it first arises, and its standard replacement."""

    palindrome: Word
    position: int  # length of the prefix whose final step is the flexed one
    replacement: Word


@dataclass(frozen=True)
class ParseTriple(_Record):
    """Split of a word around the last occurrence of a reducible palindrome.

    ``span`` is the shortest prefix containing every occurrence of the
    target, ``forced`` the letters added by the longest run of standard
    steps after it, ``tail`` the rest of the word.
    """

    span: Word
    forced: Word
    tail: Word


@dataclass(frozen=True)
class ReduciblePair(_Record):
    """A word with a flexed palindrome the rewrite machinery can act on.

    ``maximal`` records whether the target also has maximal length among the
    word's flexed palindromes (the fifth reducibility condition).
    ``check_reducible`` only ever returns maximal pairs; the rewrite
    operations act on non-maximal ones too, where the construction is still
    well defined but its guarantees are only proven for maximal targets.
    """

    word: Word
    target: Word
    parse: ParseTriple
    maximal: bool = True


@dataclass(frozen=True)
class ReductionRejection:
    """Names the first reducibility condition (1..5) that failed."""

    condition: int
    reason: str

    def __str__(self) -> str:
        return f"condition {self.condition}: {self.reason}"


class ReductionCase(Enum):
    RETURN = "return"
    CLOSURE = "closure"


@dataclass(frozen=True)
class ReductionTrace(_Record):
    """Every intermediate of one occurrence-reducing rewrite.

    ``head`` is the part of the word before the mirrored forced run and the
    palindromic core. In the return case ``complete_return`` is the complete
    return to the target ending at its first occurrence and ``lead`` is what
    precedes it. In the closure case ``replacement`` is the target's standard
    replacement and ``closure_pick`` the shortest palindromic-closure prefix
    ending with ltrim(target) + forced. ``reduced_prefix`` replaces the span
    and forced run; ``result`` appends the untouched tail.
    """

    pair: ReduciblePair
    case: ReductionCase
    head: Word
    complete_return: Word | None
    lead: Word | None
    replacement: Word | None
    closure_pick: Word | None
    reduced_prefix: Word
    result: Word

    def to_record(self) -> dict:
        """The pair's fields lead, flattened; the other fields follow."""
        record = super().to_record()
        return {**record.pop("pair"), **record}


def flexed_palindromes(w: Word) -> tuple[FlexRecord, ...]:
    """All flexed palindromes of the rich word ``w``, in arising order.

    One record per distinct palindrome; repeats keep the first position. A
    fresh scan already lists them in that order.
    """
    scan = _analysis(w)[1]
    return tuple(
        FlexRecord(w._wrap(pal), pos, w._wrap(rep)) for pal, (pos, rep) in scan.items()
    )


def standard_replacement(w: Word, r: Word) -> Word:
    """The palindrome the standard step would have created where ``r`` arose.

    Always strictly longer than ``r``. Requires ``r`` to be a flexed
    palindrome of the rich word ``w``.
    """
    hit = _analysis(w)[1].get(r.chars)
    if hit is None:
        raise NotAFlexedPalindrome(
            f"{r.chars!r} is not a flexed palindrome of {w.chars!r}"
        )
    return w._wrap(hit[1])


def _parse_triple(w: Word, r: Word, scan: _FlexScan) -> ParseTriple:
    """The split of the rich word ``w`` (flex scan ``scan``) around ``r``.

    Each prefix of a rich word has a longest palindromic suffix occurring
    there first, so each flexed step is a first arising: the scan's
    positions are exactly the flexed steps. The forced run stops one letter
    before the first of them past the last occurrence of ``r``.
    """
    s, t = w.chars, r.chars
    vlen = s.rfind(t) + len(t)
    k = next((pos for pos, _ in scan.values() if pos > vlen), len(s) + 1) - 1
    return ParseTriple(w[:vlen], w[vlen:k], w[k:])


def _conditions(
    w: Word, r: Word, scan: _FlexScan, longest: int
) -> ReduciblePair | ReductionRejection:
    """Conditions 2 through 4 for rich ``w`` and ``r``, given ``w``'s flex
    scan and the length of its longest flexed palindrome.

    Condition 5 (maximality) is recorded on the pair instead of rejecting:
    the rewrite construction needs only 1-4.
    """
    if len(r.chars) <= 2:
        return ReductionRejection(
            2, f"palindrome has length {len(r.chars)}, need more than 2"
        )
    if r.chars not in scan:
        return ReductionRejection(
            3, "palindrome is not a flexed palindrome of the word"
        )
    if r.chars in w.chars[: scan.lpp]:
        return ReductionRejection(
            4, "palindrome occurs in the longest palindromic prefix"
        )
    return ReduciblePair(w, r, _parse_triple(w, r, scan), len(r.chars) >= longest)


def _pick_reducible(w: Word, floor: int, scan: _FlexScan) -> ReduciblePair | None:
    """First reducible flexed palindrome longer than ``floor``, if any, given
    the flex scan of ``w``.

    Only maximal-length flexed palindromes can pass the reducibility check;
    equal-length candidates are tried in lexicographic order.
    """
    longest = max(map(len, scan), default=0)
    if longest <= floor:
        return None
    for chars in sorted(p for p in scan if len(p) == longest):
        outcome = _conditions(w, w._wrap(chars), scan, longest)
        if isinstance(outcome, ReduciblePair):
            return outcome
    return None


def _evaluate(w: Word, r: Word) -> ReduciblePair | ReductionRejection:
    """Run the reducibility conditions 1-4 in order, recording condition 5."""
    try:
        scan = _analysis(w)[1]
    except NotRich:
        return ReductionRejection(1, "word is not rich")
    # A target in the scan is a factor of the rich word, hence rich.
    if r.chars not in scan and not is_rich(r):
        return ReductionRejection(1, "palindrome is not rich")
    return _conditions(w, r, scan, max(map(len, scan), default=0))


def _reducible(w: Word, r: Word) -> ReduciblePair:
    """``_evaluate``, raising ``NotReducible`` when one of conditions 1-4 fails."""
    outcome = _evaluate(w, r)
    if isinstance(outcome, ReductionRejection):
        raise NotReducible(outcome)
    return outcome


def check_reducible(w: Word, r: Word) -> ReduciblePair | ReductionRejection:
    """Decide whether ``r`` can be occurrence-reduced in ``w``.

    The five conditions, checked in order: both words rich; |r| > 2; r a
    flexed palindrome of w; r absent from the longest palindromic prefix;
    no flexed palindrome of w longer than r. Returns a structured rejection
    naming the first failure instead of raising.
    """
    outcome = _evaluate(w, r)
    if isinstance(outcome, ReduciblePair) and not outcome.maximal:
        longest = max(map(len, _analysis(w)[1]))
        return ReductionRejection(
            5, f"a longer flexed palindrome exists (length {longest})"
        )
    return outcome


def parse(w: Word, r: Word) -> ParseTriple:
    """The (span, forced, tail) split around the target's occurrences.

    Needs conditions 1-4; the maximality condition 5 is not required for the
    split to be well defined (``check_reducible`` reports it).
    """
    return _reducible(w, r).parse


def _rewrite(
    idx: PalIndex, scan: dict, pair: ReduciblePair
) -> tuple[ReductionTrace, dict]:
    """The rewrite of ``pair`` checked against its five guarantees, with the
    scan of the result; raises on any failure, ``NonMaximalRewrite`` when
    the pair fails condition 5 and the result loses a guarantee. Moves
    ``idx``, the index of the pair's word with flex scan ``scan``, to the
    result; ``scan`` stays the word's."""
    w, r = pair.word, pair.target
    s, t = w.chars, r.chars
    p = pair.parse
    v, z, tail = p.span.chars, p.forced.chars, p.tail.chars

    core_len = idx.lps_length(len(v))
    head_len = len(v) - len(z) - core_len
    if head_len < 0:
        raise InternalInconsistency(
            f"no head split for {s!r} with target {t!r}: span shorter than "
            f"mirrored run plus palindromic core"
        )
    head = s[:head_len]
    stem = head + z[::-1]
    if s[: len(stem) + core_len] != stem + s[len(v) - core_len : len(v)]:
        raise InternalInconsistency(f"split of {s!r} does not reassemble")
    if s[len(stem) : len(stem) + len(t)] != t:
        raise InternalInconsistency(
            f"target {t!r} does not lead the palindromic core of {s!r}"
        )

    probe = stem + t[:-1]
    complete_return = lead = replacement = closure_pick = None
    if t in probe:
        case = ReductionCase.RETURN
        full = stem + t
        cut = occ_starts(full, t)[-2]
        g = full[cut:]
        if occ_str(g, t) != 2:
            raise InternalInconsistency(
                f"suffix {g!r} of {full!r} is not a complete return to {t!r}"
            )
        complete_return = g
        lead = full[:cut]
        reduced = lead + t + z
        if not s.startswith(reduced):
            raise InternalInconsistency(
                f"return-case prefix {reduced!r} is not a prefix of {s!r}"
            )
    else:
        case = ReductionCase.CLOSURE
        arise = s.find(t) + len(t)
        if arise != len(stem) + len(t):
            raise InternalInconsistency(
                f"first occurrence of {t!r} in {s!r} is not at the core"
            )
        replacement = scan[t][1]
        probe_lps = idx.lps_length(len(probe))
        closure = probe + probe[: len(probe) - probe_lps][::-1]
        need = t[1:] + z
        pos = closure.find(need)
        if pos < 0:
            raise InternalInconsistency(
                f"no prefix of the closure of {probe!r} ends with {need!r}"
            )
        reduced = closure[: pos + len(need)]
        closure_pick = reduced
        if t in reduced:
            raise InternalInconsistency(
                f"closure-case prefix {reduced!r} still contains {t!r}"
            )
    wrap = w._wrap
    result = wrap(reduced + tail)
    res = result.chars
    res_scan = _move(idx, scan, s, res)
    if case is ReductionCase.CLOSURE:
        # The closure is a standard extension of the probe, so the pick can
        # never add a flexed palindrome; when the pick extends the whole
        # probe it keeps every one of them. A pick shorter than the probe
        # may drop some (cutting before their first arising). Probe and pick
        # are prefixes of w and of the result: cut their scans to length.
        probe_census = _cut(scan, len(probe)).keys()
        pick_census = _cut(res_scan, len(reduced)).keys()
        if not pick_census <= probe_census:
            raise InternalInconsistency(
                f"closure-case prefix {reduced!r} has flexed palindromes "
                f"absent from {probe!r}"
            )
        if len(reduced) >= len(probe) and pick_census != probe_census:
            raise InternalInconsistency(
                f"closure-case prefix {reduced!r} extends {probe!r} but "
                f"changes its flexed palindromes"
            )
    # Ending so, the reduced prefix has at least |t| - 1 letters: guarantee 4
    # below is also the check of its common prefix with s.
    if not reduced.endswith(t[1:] + z):
        raise InternalInconsistency(
            f"reduced prefix {reduced!r} does not end with ltrim(target)+forced"
        )

    fail = InternalInconsistency if pair.maximal else NonMaximalRewrite
    if not idx.rich:
        raise fail(f"reduced word {res!r} is not rich")
    if not res_scan.keys() <= scan.keys():
        raise fail(f"reduced word {res!r} has new flexed palindromes")
    if occ_str(res, t) >= occ_str(s, t):
        raise fail(f"occurrences of {t!r} did not decrease in {res!r}")
    k = len(t) - 1
    if res[:k] != s[:k]:
        raise fail(f"common prefix of {res!r} and {s!r} too short")
    if res[-k:] != s[-k:]:
        raise fail(f"common suffix of {res!r} and {s!r} too short")

    opt = lambda x: None if x is None else wrap(x)
    trace = ReductionTrace(
        pair=pair,
        case=case,
        head=wrap(head),
        complete_return=opt(complete_return),
        lead=opt(lead),
        replacement=opt(replacement),
        closure_pick=opt(closure_pick),
        reduced_prefix=wrap(reduced),
        result=result,
    )
    return trace, res_scan


def reduced_word(w: Word, r: Word) -> tuple[Word, ReductionTrace]:
    """One occurrence-reducing rewrite of ``w`` at ``r``, fully checked.

    Before returning, asserts the five guarantees: the result is rich, its
    flexed palindromes are among those of ``w``, ``r`` occurs strictly less
    often, and both the common prefix and common suffix with ``w`` have
    length at least |r| - 1. The guarantees are proven for maximal targets
    (condition 5); the rewrite runs without maximality — conditions 1-4 —
    and a guarantee it then loses raises ``NonMaximalRewrite``.
    """
    pair = _reducible(w, r)
    idx, scan = _owned(w)
    trace, res_scan = _rewrite(idx, scan, pair)
    # nothing moves idx again, so the result keeps it as its analysis
    _keep(trace.result, idx, res_scan)
    return trace.result, trace


def reduced_prefix(w: Word, r: Word) -> ReductionTrace:
    """The trace of ``reduced_word(w, r)``, raising as it does: the checked
    rewrite of the span+forced part of ``w`` so ``r`` occurs less often.
    The trace's ``result`` field already includes the tail."""
    return reduced_word(w, r)[1]
