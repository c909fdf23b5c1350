"""Enumeration of rich words and a budgeted common-superword search.

Every prefix of a rich word is rich, so the rich words over a fixed
alphabet form a tree rooted at the empty word in which children append one
letter. One walker streams this tree depth-first: ``palindromes._walk``,
which lives beside the palindrome index it edits in place. A word stays
rich exactly when its next letter creates a palindrome, and the walker
tests each candidate letter on the index before editing it; only a node
with grandchildren is appended, and it is popped on backtrack. The walker keeps
an explicit stack, so walks are as deep as memory allows.

The common-superword search asks: is there a rich word containing two given
rich words as factors? It walks the same tree with iterative deepening on
length, serially, each round in the display order enumeration uses. A
node counts as a hit when it contains each target up to reversal; one
palindromic closure then restores requested orientations, since the
closure is a palindrome containing the node as a prefix (and hence every
reversed factor too). The search is budget-bounded: running out of
budget means "not decided", never "no".

Its node count covers every node of every round. A round shorter than the
targets' shortest common superstring cannot hit, and its node count is the
number of rich words up to its length, which depends on the alphabet size
alone; such rounds are counted from a per-alphabet table, not walked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterator

from .errors import InternalInconsistency, NotRich, _require_int
from .palindromes import PalIndex, _index, _walk, is_rich, pal_closure
from .words import Alphabet, Word, _Record, _check_same_alphabet

__all__ = [
    "DEFAULT_MAX_NODES",
    "EnumConfig",
    "SearchBudget",
    "SearchStatus",
    "SearchVerdict",
    "enumerate_rich",
    "find_common_superword",
    "pal_complexity_profile",
]


@dataclass(frozen=True)
class EnumConfig:
    """What to enumerate: alphabet size, length ceiling, and whether to
    quotient by letter renaming (emit only words whose distinct letters
    first appear in increasing order)."""

    alphabet_size: int
    max_length: int
    canonical: bool = False

    def __post_init__(self):
        _require_int(self.alphabet_size, "alphabet size")
        _require_int(self.max_length, "max length", lo=0)


DEFAULT_MAX_NODES = 1_000_000


@dataclass(frozen=True)
class SearchBudget(_Record):
    """Limits for the superword search: the longest word walked (the closure
    that orients a hit can make the witness longer) and the total tree nodes
    visited across all deepening rounds. ``max_length=None`` means
    |w1| + |w2|, filled in before the verdict records the budget."""

    max_length: int | None = None
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        if self.max_length is not None:
            _require_int(self.max_length, "max length", lo=0)
        _require_int(self.max_nodes, "max nodes")


class SearchStatus(Enum):
    WITNESS = "witness"
    EXHAUSTED = "exhausted-budget"


@dataclass(frozen=True)
class SearchVerdict(_Record):
    """Outcome of one search: a verified witness, or an honest "not decided"
    after the budget ran out. ``explored`` counts the tree nodes of every
    deepening round up to the verdict; the rounds shorter than the targets'
    shortest common superstring are counted from a table, not walked."""

    status: SearchStatus
    witness: Word | None
    explored: int
    budget: SearchBudget


# -- enumeration ---------------------------------------------------------


def _subtree_chunk(args: tuple[int, str, int, bool]) -> list[str]:
    """Worker body: all strict descendants of one enumeration-tree node."""
    alphabet_size, root, max_length, canonical = args
    idx = PalIndex(Alphabet(alphabet_size))
    idx.extend(root)
    return list(_walk(idx, max_length, canonical))


def enumerate_rich(config: EnumConfig, workers: int = 1) -> Iterator[Word]:
    """Every rich word over the alphabet up to the length ceiling, once each.

    Sequential runs emit in depth-first preorder starting from the empty
    word, children in display order. With ``workers`` > 1 the subtrees below
    a fixed depth are handed to worker processes and may be emitted out of
    order relative to each other. The pool never holds more processes than
    there are subtrees or cores, however large ``workers`` is. ``workers``
    is checked when called, before the stream is read.
    """
    _require_int(workers, "workers")
    return _enumerate(config, workers, Alphabet(config.alphabet_size))


def _enumerate(config: EnumConfig, workers: int, alphabet: Alphabet) -> Iterator[Word]:
    """The stream ``enumerate_rich`` returns, over checked arguments."""
    base = alphabet.word("")
    yield base
    if workers == 1:
        for chars in _walk(PalIndex(alphabet), config.max_length, config.canonical):
            yield base._wrap(chars)
        return

    # Parallel mode: emit the shallow words sequentially, then farm out the
    # subtrees hanging below the split depth.
    split = min(2, config.max_length)
    roots: list[str] = []
    for chars in _walk(PalIndex(alphabet), split, config.canonical):
        yield base._wrap(chars)
        if len(chars) == split:
            roots.append(chars)
    if split >= config.max_length:
        return
    import multiprocessing  # only this branch needs it; importing it costs ~1 MB

    jobs = [(config.alphabet_size, root, config.max_length, config.canonical) for root in roots]
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    with multiprocessing.Pool(processes=processes) as pool:
        for chunk in pool.imap_unordered(_subtree_chunk, jobs):
            for chars in chunk:
                yield base._wrap(chars)


# -- common-superword search ---------------------------------------------


class _RoundCounts:
    """How many nodes a deepening round over ``q`` letters visits: round L
    visits every nonempty rich word of length <= L once.

    ``upto[L]`` is that number, exact up to the deepest complete walk. A walk
    cut at a cap leaves only a floor in ``capped``: at least ``capped[L]``
    nonempty rich words of length <= L. Both depend on ``q`` alone and hold
    no input word.
    """

    def __init__(self, q: int):
        self.q = q
        self.upto = [0]
        self.capped: dict[int, int] = {}

    def size(self, limit: int, cap: int) -> int:
        """Nodes visited by round ``limit``, or ``cap`` when that is at least
        ``cap``. Walks at most ``cap`` nodes to find out."""
        if limit < len(self.upto):
            return min(self.upto[limit], cap)
        if any(d <= limit and n >= cap for d, n in self.capped.items()):
            return cap
        by_length = [0] * (limit + 1)
        for seen, chars in enumerate(_walk(PalIndex(Alphabet(self.q)), limit), 1):
            if seen == cap:
                self.capped[limit] = cap
                return cap
            by_length[len(chars)] += 1
        self.upto = list(accumulate(by_length))
        return self.upto[limit]


# One table per alphabet size, shared by every query in the process: its
# counts are facts about the alphabet, so sharing changes no result.
_ROUND_COUNTS: dict[int, _RoundCounts] = {}


def _superstring_len(a: str, b: str) -> int:
    """Length of the shortest string holding both ``a`` and ``b``."""
    if b in a:
        return len(a)
    if a in b:
        return len(b)
    for k in range(min(len(a), len(b)) - 1, 0, -1):
        if a.endswith(b[:k]) or b.endswith(a[:k]):
            return len(a) + len(b) - k
    return len(a) + len(b)


def _witness(w: Word, p1: str, p2: str) -> Word:
    """The checked witness for the hit ``w``: ``w`` itself when it holds both
    targets literally, else its palindromic closure, which holds every
    reversed factor of ``w`` too."""
    if p1 not in w.chars or p2 not in w.chars:
        w = pal_closure(w)
    if not is_rich(w):
        raise InternalInconsistency(f"witness {w.chars!r} is not rich")
    if p1 not in w.chars or p2 not in w.chars:
        raise InternalInconsistency(f"witness {w.chars!r} misses a required factor")
    return w


def find_common_superword(
    w1: Word, w2: Word, budget: SearchBudget | None = None
) -> SearchVerdict:
    """Look for a rich word containing both ``w1`` and ``w2`` as factors.

    Iterative deepening over the rich-extension tree, each round walked in
    display order as enumeration walks it; a node hits when it contains each
    target up to reversal. ``_witness`` closes the hit palindromically when a
    target occurs in it only reversed (so a returned witness may be longer
    than the length budget) and checks it: rich, holding both targets. The
    default budget is ``SearchBudget()``.

    No word shorter than the shortest common superstring of the targets, in
    any orientation, can hit, so those rounds are counted from a table of
    rich-word counts instead of walked; ``explored`` is the same either way.

    The walk keeps an explicit stack, so the search depth is bounded only by
    memory.
    """
    for w in (w1, w2):
        if not is_rich(w):
            raise NotRich(f"{w.chars!r} is not rich")
    _check_same_alphabet(w1, w2)
    if budget is None:
        budget = SearchBudget()
    if budget.max_length is None:
        budget = SearchBudget(len(w1.chars) + len(w2.chars), budget.max_nodes)
    p1, p2 = w1.chars, w2.chars
    r1, r2 = p1[::-1], p2[::-1]
    base = w1._wrap("")

    if p1 == "" and p2 == "":
        return SearchVerdict(SearchStatus.WITNESS, _witness(base, p1, p2), 0, budget)

    # reversing both targets keeps the superstring length, so two pairs do
    short = min(_superstring_len(p1, p2), _superstring_len(p1, r2))
    q = w1.alphabet.size
    counts = _ROUND_COUNTS.get(q) or _ROUND_COUNTS.setdefault(q, _RoundCounts(q))
    explored = 0
    for limit in range(max(len(p1), len(p2), 1), budget.max_length + 1):
        if limit < short:
            explored += counts.size(limit, budget.max_nodes - explored)
            if explored >= budget.max_nodes:
                break  # the counted rounds spent the budget: no walker is built
            continue
        for chars in _walk(PalIndex(w1.alphabet), limit):
            if explored >= budget.max_nodes:
                return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)
            explored += 1
            if (p1 in chars or r1 in chars) and (p2 in chars or r2 in chars):
                witness = _witness(base._wrap(chars), p1, p2)
                return SearchVerdict(SearchStatus.WITNESS, witness, explored, budget)
    return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)


def pal_complexity_profile(w: Word) -> dict[int, int]:
    """How many distinct palindromic factors of each positive length ``w``
    has. The empty word maps to an empty profile."""
    return _index(w).length_profile()
