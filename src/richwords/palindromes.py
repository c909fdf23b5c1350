"""Palindromic structure of words: the incremental index and derived queries.

``PalIndex`` is a palindromic tree (eertree): one node per distinct
palindromic factor, plus two roots. Appending a letter costs amortized O(1)
and answers, for every prefix, the longest palindromic suffix and whether
that suffix occurred for the first time at that step. A word of length n is
rich (has the maximal number n+1 of distinct palindromic factors, counting
the empty word) exactly when every append created a node, which is what makes
the index the workhorse for richness testing, extension search, and the
enumeration tree.

Appends can be undone with ``pop``, so one index can walk a whole search tree
of words in depth-first order without rebuilding. ``extend`` and ``truncate``
do the same many letters at a time, in one call: ``extend`` builds every
index of a whole word, and ``truncate`` plus ``extend`` move an index from
one word to the next across their common prefix.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EmptyPattern, LengthViolation, NotAFactor, NotRich
from .words import Alphabet, Word, occ_starts, reverse

__all__ = [
    "PalIndex",
    "lps",
    "lpp",
    "lpps",
    "lppp",
    "pal_factors",
    "pal_factors_avoiding",
    "is_rich",
    "pal_closure",
    "complete_returns",
]


class PalIndex:
    """Incremental palindrome index over a growing and shrinking word.

    Prefix positions are 1-based lengths: ``lps_length(k)`` talks about the
    prefix consisting of the first k letters.

    Stored: the letters (``_chars``); per tree node its length, suffix link
    and outgoing edges (``_len``, ``_slink``, ``_trans``); and per append the
    node of the longest palindromic suffix (``_lps_node``) and the node that
    append extended into a new one, or -1 when it created none (``_parent``).
    Every other query is derived from these.

    Edits: ``append``/``pop`` add or undo one letter; ``extend`` appends a
    string and ``truncate`` cuts back to a prefix, each in one call and to the
    state the single-letter edits would leave.
    """

    __slots__ = (
        "alphabet", "_chars", "_len", "_slink", "_trans", "_lps_node", "_parent"
    )

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._chars: list[str] = []
        # node 0: root of length -1, node 1: root of length 0 (the empty word)
        self._len = [-1, 0]
        self._slink = [0, 0]
        self._trans: list[dict[str, int]] = [{}, {}]
        # per-append records, index i describes the prefix of length i+1
        self._lps_node: list[int] = []
        self._parent: list[int] = []

    @classmethod
    def of_word(cls, w: Word) -> "PalIndex":
        idx = cls(w.alphabet)
        idx.extend(w.chars)
        return idx

    # -- growth ---------------------------------------------------------

    def append(self, ch: str) -> bool:
        """Push one letter; returns True when a new palindrome appeared."""
        chars = self._chars
        lens = self._len
        slink = self._slink
        trans = self._trans
        nodes = self._lps_node
        x = nodes[-1] if nodes else 1
        chars.append(ch)
        # Both suffix-link walks stay inline: one shared helper method cost
        # 6-9 % of long-elimination throughput and 3-8 % of corpus-sweep.
        n = len(chars) - 1
        while True:
            if lens[x] == -1:
                break
            j = n - lens[x] - 1
            if j >= 0 and chars[j] == ch:
                break
            x = slink[x]
        node = trans[x].get(ch)
        if node is None:
            new_len = lens[x] + 2
            if new_len == 1:
                sl = 1
            else:
                y = slink[x]
                while True:
                    if lens[y] == -1:
                        break
                    j = n - lens[y] - 1
                    if j >= 0 and chars[j] == ch:
                        break
                    y = slink[y]
                sl = trans[y][ch]
            node = len(lens)
            lens.append(new_len)
            slink.append(sl)
            trans.append({})
            trans[x][ch] = node
            parent = x
        else:
            parent = -1
        nodes.append(node)
        self._parent.append(parent)
        return parent >= 0

    def extend(self, text: str) -> None:
        """Append every letter of ``text``, leaving exactly the state that one
        ``append`` per letter leaves.

        The loop repeats ``append``'s with the lists held in locals once per
        call. ``append`` keeps its own copy for callers that add one letter,
        the tree walker first: routing it through ``extend`` cost enumerate
        23-28 % of its items per second (perfbench, 2 cores, Python 3.11).
        """
        lens = self._len
        slink = self._slink
        trans = self._trans
        nodes = self._lps_node
        parents = self._parent
        chars = self._chars
        # Letters are read from one string of the whole result; the root of
        # length -1 always matches (j = n), so the walks need no root test.
        s = "".join(chars) + text
        x = nodes[-1] if nodes else 1
        for n in range(len(chars), len(s)):
            ch = s[n]
            while True:
                j = n - lens[x] - 1
                if j >= 0 and s[j] == ch:
                    break
                x = slink[x]
            node = trans[x].get(ch)
            if node is None:
                new_len = lens[x] + 2
                if new_len == 1:
                    sl = 1
                else:
                    y = slink[x]
                    while True:
                        j = n - lens[y] - 1
                        if j >= 0 and s[j] == ch:
                            break
                        y = slink[y]
                    sl = trans[y][ch]
                node = len(lens)
                lens.append(new_len)
                slink.append(sl)
                trans.append({})
                trans[x][ch] = node
                parents.append(x)
            else:
                parents.append(-1)
            nodes.append(node)
            x = node
        chars.extend(text)

    def pop(self) -> None:
        """Undo the most recent append."""
        ch = self._chars.pop()
        self._lps_node.pop()
        parent = self._parent.pop()
        if parent >= 0:
            del self._trans[parent][ch]
            self._len.pop()
            self._slink.pop()
            self._trans.pop()

    def truncate(self, k: int) -> None:
        """Undo appends down to the length-k prefix, 0 <= k <= len: the state
        that len - k pops leave, in one call."""
        chars = self._chars
        if not 0 <= k <= len(chars):
            raise self._bad_prefix(k, 0)
        parents = self._parent
        trans = self._trans
        made = 0
        for i in range(k, len(chars)):
            parent = parents[i]
            if parent >= 0:
                del trans[parent][chars[i]]
                made += 1
        cut = len(self._len) - made
        del self._len[cut:], self._slink[cut:], trans[cut:]
        del chars[k:], self._lps_node[k:], parents[k:]

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._chars)

    @property
    def chars(self) -> str:
        return "".join(self._chars)

    @property
    def distinct_palindromes(self) -> int:
        """Distinct nonempty palindromic factors of the current word."""
        return len(self._len) - 2

    @property
    def rich(self) -> bool:
        """Whether the current word is rich (every append created a palindrome).

        Each append creates at most one node, so that holds exactly when there
        are as many nodes besides the two roots as letters.
        """
        return len(self._len) - 2 == len(self._chars)

    def _bad_prefix(self, k: int, lo: int) -> LengthViolation:
        return LengthViolation(
            f"prefix length must be in {lo}..{len(self._chars)}, got {k}"
        )

    def lps_length(self, k: int) -> int:
        """Length of the longest palindromic suffix of the length-k prefix,
        0 <= k <= len."""
        if not 0 <= k <= len(self._chars):
            raise self._bad_prefix(k, 0)
        if k == 0:
            return 0
        return self._len[self._lps_node[k - 1]]

    def lps_is_new(self, k: int) -> bool:
        """Whether the lps of the length-k prefix occurs there for the first
        time, 1 <= k <= len."""
        if not 0 < k <= len(self._chars):
            raise self._bad_prefix(k, 1)
        return self._parent[k - 1] >= 0

    def lpps_length(self, k: int) -> int:
        """Length of the longest proper palindromic suffix of the length-k prefix.

        Defined here for every 1 <= k <= len, with value 0 for a single letter.
        """
        if not 0 < k <= len(self._chars):
            raise self._bad_prefix(k, 1)
        node = self._lps_node[k - 1]
        length = self._len[node]
        if length < k:
            return length
        return self._len[self._slink[node]]

    def std_letter(self, k: int) -> str:
        """The letter whose append extends the length-k prefix standardly.

        For a prefix u with longest proper palindromic suffix p, the standard
        extension appends the letter x that precedes p in u (so the new
        longest palindromic suffix becomes x p x); for k = 1 this is the
        letter itself. Requires 1 <= k <= len.
        """
        return self._chars[k - self.lpps_length(k) - 1]

    def lpp_length(self) -> int:
        """Length of the longest palindromic prefix of the current word."""
        lens = self._len
        nodes = self._lps_node
        for k in range(len(nodes), 0, -1):
            if lens[nodes[k - 1]] == k:
                return k
        return 0

    def rich_letters(self) -> str:
        """Letters whose append keeps the current (rich) word rich.

        Each letter is appended and popped again, so the index is unchanged.
        """
        out = []
        for ch in self.alphabet.letters:
            if self.append(ch):
                out.append(ch)
            self.pop()
        return "".join(out)

    def iter_palindromes(self) -> Iterator[str]:
        """Every distinct nonempty palindromic factor, as a display string.

        Ordered by where each first occurrence ends, as the appends made them.
        """
        s = self.chars
        lens = self._len
        for end, (node, parent) in enumerate(zip(self._lps_node, self._parent), 1):
            if parent >= 0:
                yield s[end - lens[node] : end]


def lps(w: Word) -> Word:
    """Longest palindromic suffix (the empty word for the empty word)."""
    n = len(w.chars)
    return w[n - PalIndex.of_word(w).lps_length(n) :]


def lpp(w: Word) -> Word:
    """Longest palindromic prefix (the empty word for the empty word)."""
    return reverse(lps(reverse(w)))


def lpps(w: Word) -> Word:
    """Longest proper palindromic suffix; requires |w| >= 2."""
    if len(w.chars) < 2:
        raise LengthViolation(f"lpps needs length >= 2, got {len(w.chars)}")
    idx = PalIndex.of_word(w)
    n = len(w.chars)
    return w[n - idx.lpps_length(n) :]


def lppp(w: Word) -> Word:
    """Longest proper palindromic prefix; requires |w| >= 2."""
    if len(w.chars) < 2:
        raise LengthViolation(f"lppp needs length >= 2, got {len(w.chars)}")
    return reverse(lpps(reverse(w)))


def pal_factors(w: Word) -> set[Word]:
    """All distinct palindromic factors, including the empty word."""
    idx = PalIndex.of_word(w)
    out = {w._wrap("")}
    for p in idx.iter_palindromes():
        out.add(w._wrap(p))
    return out


def pal_factors_avoiding(w: Word, r: Word) -> set[Word]:
    """Palindromic factors of ``w`` in which ``r`` does not occur."""
    return {p for p in pal_factors(w) if r.chars not in p.chars}


def is_rich(w: Word) -> bool:
    """Whether ``w`` has |w| + 1 distinct palindromic factors (with the empty word).

    Tested incrementally: each appended letter must contribute a palindrome
    never seen before, equivalently the longest palindromic suffix of every
    prefix occurs there for the first time. A True verdict is kept on the
    word, so asking again costs no index build.
    """
    if not w._rich:
        w._rich = PalIndex.of_word(w).rich
    return w._rich


def pal_closure(w: Word) -> Word:
    """Shortest palindrome having ``w`` as a prefix.

    With p the longest palindromic suffix and w = u p, the closure is u p u
    reversed onto the end: u p u^R.
    """
    s = w.chars
    head = s[: len(s) - len(lps(w).chars)]
    return w._wrap(s + head[::-1])


def complete_returns(w: Word, u: Word) -> set[Word]:
    """All complete returns to ``u`` in ``w``.

    A complete return is a factor containing exactly two occurrences of
    ``u``, one as a prefix and one as a suffix: the stretch between two
    consecutive occurrences, including both.
    """
    if not u.chars:
        raise EmptyPattern("return pattern must be nonempty")
    s, p = w.chars, u.chars
    starts = occ_starts(s, p)
    if not starts:
        raise NotAFactor(f"{p!r} does not occur in {s!r}")
    out = set()
    for a, b in zip(starts, starts[1:]):
        out.add(w._wrap(s[a : b + len(p)]))
    return out


def require_rich(w: Word) -> PalIndex:
    """Index ``w``, raising ``NotRich`` when it is not rich, and mark ``w``
    proved rich."""
    idx = PalIndex.of_word(w)
    if not idx.rich:
        raise NotRich(f"{w.chars!r} is not rich")
    w._rich = True
    return idx
