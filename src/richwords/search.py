"""Enumeration of rich words and a budgeted common-superword search.

Every prefix of a rich word is rich, so the rich words over a fixed
alphabet form a tree rooted at the empty word in which children append one
letter. One walker, ``_walk``, streams this tree depth-first with an
incrementally maintained palindrome index, backtracking in O(1) per edge.
A node's children are its candidate letters, each tried by appending it to
the index: a word stays rich exactly when the append creates a palindrome,
and a letter whose append creates none is popped again. The walker keeps an
explicit stack, so walks are as deep as memory allows.

The common-superword search asks: is there a rich word containing two given
rich words as factors? It walks the same tree with iterative deepening on
length, serially. A node counts as a hit when it contains each target up to
reversal; one palindromic closure then restores requested orientations,
since the closure is a palindrome containing the node as a prefix (and hence
every reversed factor too). The search is budget-bounded: running out of
budget means "not decided", never "no".
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import AlphabetMismatch, InternalInconsistency, NotRich, PreconditionViolation
from .palindromes import PalIndex, is_rich, pal_closure
from .words import Alphabet, Word, _Record

__all__ = [
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
        if self.alphabet_size < 1:
            raise PreconditionViolation(
                f"alphabet size must be positive, got {self.alphabet_size}"
            )
        if self.max_length < 0:
            raise PreconditionViolation(
                f"max length must be nonnegative, got {self.max_length}"
            )


@dataclass(frozen=True)
class SearchBudget(_Record):
    """Hard limits for the superword search: longest word tried and total
    tree nodes visited across all deepening rounds."""

    max_length: int
    max_nodes: int

    def __post_init__(self):
        if self.max_length < 0:
            raise PreconditionViolation(
                f"max length must be nonnegative, got {self.max_length}"
            )
        if self.max_nodes < 1:
            raise PreconditionViolation(
                f"max nodes must be positive, got {self.max_nodes}"
            )


class SearchStatus(Enum):
    WITNESS = "witness"
    EXHAUSTED = "exhausted-budget"


@dataclass(frozen=True)
class SearchVerdict(_Record):
    """Outcome of one search: a verified witness, or an honest "not decided"
    after the budget ran out. ``explored`` counts tree nodes visited."""

    status: SearchStatus
    witness: Word | None
    explored: int
    budget: SearchBudget


# -- the tree walk --------------------------------------------------------


def _walk(
    idx: PalIndex, max_length: int, canonical: bool = False, std_first: bool = False
) -> Iterator[str]:
    """Preorder stream of the strict descendants, up to ``max_length``, of
    the word held in ``idx``.

    An explicit stack keeps one iterator over the node's candidate letters
    per level, so depth is bounded by memory, not by the interpreter's
    recursion limit. Candidates come in display order; with ``canonical`` a
    letter may not skip an unused one, and with ``std_first`` the standard
    letter leads. Each candidate is appended to ``idx``; one whose append
    creates no palindrome leaves a word that is not rich, so it is popped
    and skipped. ``idx`` is walked in place and is back at its starting word
    once the stream is exhausted.
    """
    root = len(idx)
    if root >= max_length:
        return
    letters = idx.alphabet.letters
    used = [len(set(idx.chars))] if canonical else None

    def children(k: int) -> Iterator[str]:
        out = letters[: used[-1] + 1] if canonical else letters
        if std_first and k:
            # the standard letter occurs in the word, so it is a candidate
            std = idx.std_letter(k)
            out = std + out.replace(std, "")
        return iter(out)

    # one iterator per level, so idx holds root + len(stack) - 1 letters
    stack = [children(root)]
    while stack:
        ch = next(stack[-1], "")
        if not ch:
            stack.pop()
            if stack:
                idx.pop()
                if canonical:
                    used.pop()
            continue
        if not idx.append(ch):
            idx.pop()
            continue
        yield idx.chars
        k = root + len(stack)
        if k < max_length:
            if canonical:
                n = used[-1]
                used.append(n + 1 if n < len(letters) and ch == letters[n] else n)
            stack.append(children(k))
        else:
            idx.pop()


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
    order relative to each other.
    """
    if workers < 1:
        raise PreconditionViolation(f"workers must be positive, got {workers}")
    alphabet = Alphabet(config.alphabet_size)
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
    if split >= config.max_length or not roots:
        return
    jobs = [(config.alphabet_size, root, config.max_length, config.canonical) for root in roots]
    with multiprocessing.Pool(processes=workers) as pool:
        for chunk in pool.imap_unordered(_subtree_chunk, jobs):
            for chars in chunk:
                yield base._wrap(chars)


# -- common-superword search ---------------------------------------------


def _orient(witness_chars: str, base: Word, p1: str, p2: str) -> Word:
    """Make both targets literal factors, closing palindromically if needed."""
    w = base._wrap(witness_chars)
    if p1 in witness_chars and p2 in witness_chars:
        return w
    return pal_closure(w)


def _validated(witness: Word, p1: str, p2: str) -> Word:
    if not is_rich(witness):
        raise InternalInconsistency(f"witness {witness.chars!r} is not rich")
    if p1 not in witness.chars or p2 not in witness.chars:
        raise InternalInconsistency(
            f"witness {witness.chars!r} misses a required factor"
        )
    return witness


def find_common_superword(
    w1: Word, w2: Word, budget: SearchBudget | None = None
) -> SearchVerdict:
    """Look for a rich word containing both ``w1`` and ``w2`` as factors.

    Iterative deepening over the rich-extension tree, preferring the
    standard-extension child at each node; a node hits when it contains each
    target up to reversal, and one palindromic closure then fixes
    orientation (so a returned witness may be longer than the length
    budget). Every witness is re-validated before being returned. The
    default budget allows words up to |w1| + |w2| and a million nodes.

    The walk keeps an explicit stack, so the search depth is bounded only by
    memory.
    """
    for w in (w1, w2):
        if not is_rich(w):
            raise NotRich(f"{w.chars!r} is not rich")
    if w1.alphabet != w2.alphabet:
        raise AlphabetMismatch(
            f"targets use different alphabets: {w1.alphabet!r} vs {w2.alphabet!r}"
        )
    if budget is None:
        budget = SearchBudget(
            max_length=len(w1.chars) + len(w2.chars), max_nodes=1_000_000
        )
    p1, p2 = w1.chars, w2.chars
    r1, r2 = p1[::-1], p2[::-1]
    base = w1._wrap("")

    if p1 == "" and p2 == "":
        return SearchVerdict(SearchStatus.WITNESS, _validated(base, p1, p2), 0, budget)

    explored = 0
    for limit in range(max(len(p1), len(p2), 1), budget.max_length + 1):
        for chars in _walk(PalIndex(w1.alphabet), limit, std_first=True):
            if explored >= budget.max_nodes:
                return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)
            explored += 1
            if (p1 in chars or r1 in chars) and (p2 in chars or r2 in chars):
                witness = _validated(_orient(chars, base, p1, p2), p1, p2)
                return SearchVerdict(SearchStatus.WITNESS, witness, explored, budget)
    return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)


def pal_complexity_profile(w: Word) -> dict[int, int]:
    """How many distinct palindromic factors of each positive length ``w``
    has. The empty word maps to an empty profile."""
    idx = PalIndex.of_word(w)
    profile: dict[int, int] = {}
    lens = idx._len
    for node in range(2, len(lens)):
        profile[lens[node]] = profile.get(lens[node], 0) + 1
    return dict(sorted(profile.items()))
