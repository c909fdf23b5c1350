"""Palindromic structure of words: the incremental index and derived queries.

``PalIndex`` is a palindromic tree (eertree): one node per distinct
palindromic factor, plus two roots. Each append walks suffix links from
the longest palindromic suffix and records, for every prefix, the longest
palindromic suffix and whether that suffix occurred there for the first
time. Growing a word costs amortized O(1) per letter; with ``pop`` in
between it does not, since a letter tried after ``0^k`` walks k links. A
word of length n is rich (has the maximal number n+1 of distinct
palindromic factors, counting the empty word) exactly when every append
created a node, which is what makes the index the workhorse for richness
testing, extension search, and the enumeration tree.

Appends can be undone with ``pop``. ``_walk``, the one walker of the tree
of rich words that enumeration and search share, walks it depth-first and
in display order on one index without rebuilding: it tests a letter before
appending it, and appends only a word that has grandchildren. ``extend``
and ``truncate`` edit many letters at a time, in one call: ``extend``
builds every index of a whole word, and ``truncate`` plus ``extend`` move
an index from one word to the next across their common prefix; ``copy``
gives a caller an index of its own to move.

A rich word keeps its analysis (``Word._pal``): its index and its flex
scan (``_FlexScan``), built on first use by one loop, ``extend``, which
reads each flexed step off the suffix-link walk the step makes anyway; the
calls after the first build neither. Only this module reads or writes that memo, and having it is the
proof that the word is rich. The kept index is never edited:
``require_rich`` hands out a copy, a call that moves an index moves a copy,
and a call that only reads it (``rich_letters``, the standard extensions)
neither edits nor copies it.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError, EmptyPattern, LengthViolation, NotAFactor, NotRich
from .words import Alphabet, Word, _not_in, common_prefix_len, occ_starts

__all__ = [
    "PalIndex",
    "lps",
    "lpp",
    "lpps",
    "lppp",
    "pal_factors",
    "pal_factors_avoiding",
    "is_rich",
    "require_rich",
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
    state the single-letter edits would leave. Each checks its input before
    it edits: a letter outside the alphabet raises ``DomainError``, a cut
    past either end ``LengthViolation``.
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

    def copy(self) -> "PalIndex":
        """An independent index of the same word: edits to either leave the
        other as it was."""
        idx = PalIndex.__new__(PalIndex)
        idx.alphabet = self.alphabet
        idx._chars = self._chars[:]
        idx._len = self._len[:]
        idx._slink = self._slink[:]
        idx._trans = [edges.copy() for edges in self._trans]
        idx._lps_node = self._lps_node[:]
        idx._parent = self._parent[:]
        return idx

    # -- growth ---------------------------------------------------------

    def append(self, ch: str) -> bool:
        """Push one letter; returns True when a new palindrome appeared."""
        if len(ch) != 1:
            raise DomainError(f"append takes exactly one letter, got {ch!r}")
        if ch.lstrip(self.alphabet.letters):
            raise _not_in(ch, self.alphabet)
        chars = self._chars
        lens = self._len
        slink = self._slink
        trans = self._trans
        nodes = self._lps_node
        x = nodes[-1] if nodes else 1
        chars.append(ch)
        # ``ch`` is appended first, so the root of length -1 always matches
        # (j = n) and the walks need no root test.
        n = len(chars) - 1
        while True:
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

    def extend(self, text: str, scan: _FlexScan | None = None) -> None:
        """Append every letter of ``text``, leaving exactly the state that one
        ``append`` per letter leaves.

        Given ``scan``, the flex scan of the word held so far, the same loop
        extends it in place to the result's. A step is flexed exactly when
        its first suffix-link walk stops short of the longest proper
        palindromic suffix before it (never so for the first letter). That
        walk leaves its start node only by hopping, and a palindromic prefix
        always hops, so the scan and ``lpp`` work sits in the hop branch: a
        build without a scan pays one assignment and one comparison a letter,
        and one more comparison a hop.

        The loop repeats ``append``'s with the lists held in locals once per
        call. ``append`` stays for callers outside the library that add one
        letter at a time, and as the per-letter reference the tests hold
        ``extend`` and the standard extensions to; ``_walk`` inlines the step.
        """
        rest = text.lstrip(self.alphabet.letters)
        if rest:
            raise _not_in(rest[0], self.alphabet)
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
        if scan is not None:
            lpp = scan.lpp
        for n in range(len(chars), len(s)):
            ch = s[n]
            top = x
            while True:
                j = n - lens[x] - 1
                if j >= 0 and s[j] == ch:
                    break
                x = slink[x]
            if x != top and scan is not None:
                # top becomes the longest proper palindromic suffix
                plen = lens[top]
                if plen == n:
                    lpp = n
                    top = slink[top]
                    plen = lens[top]
                if x != top:
                    pal = s[n - lens[x] - 1 : n + 1]
                    if pal not in scan:
                        std = s[n - 1 - plen]
                        scan[pal] = (n + 1, std + s[n - plen : n] + std)
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
        if scan is not None:
            scan.lpp = len(s) if lens[x] == len(s) else lpp

    def pop(self) -> None:
        """Undo the most recent append."""
        if not self._chars:
            raise LengthViolation("pop needs length >= 1")
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
        self._prefix(k, 0)
        chars = self._chars
        parents = self._parent
        trans = self._trans
        cut_parents = parents[k:]
        # the nodes made by the cut appends go whole, and their edges with them
        cut = len(self._len) - len(cut_parents) + cut_parents.count(-1)
        for parent, ch in zip(cut_parents, chars[k:]):
            if 0 <= parent < cut:
                del trans[parent][ch]
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

    def length_profile(self) -> dict[int, int]:
        """How many distinct nonempty palindromic factors of each length the
        current word has, by ascending length: every node past the two roots
        is one of them."""
        counts: dict[int, int] = {}
        for n in self._len[2:]:
            counts[n] = counts.get(n, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def rich(self) -> bool:
        """Whether the current word is rich (every append created a palindrome).

        Each append creates at most one node, so that holds exactly when there
        are as many nodes besides the two roots as letters.
        """
        return len(self._len) - 2 == len(self._chars)

    def _prefix(self, k: int, lo: int) -> int:
        """``k``, when it is an ``int`` prefix length in lo..len (lo is 0 or
        1); anything else raises ``LengthViolation``."""
        if isinstance(k, int) and lo <= k <= len(self._chars):
            return k
        raise LengthViolation(
            f"prefix length must be in {lo}..{len(self._chars)}, got {k}"
        )

    def lps_length(self, k: int) -> int:
        """Length of the longest palindromic suffix of the length-k prefix,
        0 <= k <= len."""
        if self._prefix(k, 0) == 0:
            return 0
        return self._len[self._lps_node[k - 1]]

    def lps_is_new(self, k: int) -> bool:
        """Whether the lps of the length-k prefix occurs there for the first
        time, 1 <= k <= len."""
        return self._parent[self._prefix(k, 1) - 1] >= 0

    def lpps_length(self, k: int) -> int:
        """Length of the longest proper palindromic suffix of the length-k prefix.

        Defined here for every 1 <= k <= len, with value 0 for a single letter.
        """
        node = self._lps_node[self._prefix(k, 1) - 1]
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

    def lpp_length(self, k: int | None = None) -> int:
        """Length of the longest palindromic prefix of the length-k prefix,
        0 <= k <= len; by default of the current word."""
        nodes = self._lps_node
        k = len(nodes) if k is None else self._prefix(k, 0)
        lens = self._len
        for j in range(k, 0, -1):
            if lens[nodes[j - 1]] == j:
                return j
        return 0

    def rich_letters(self) -> str:
        """Letters whose append keeps the current (rich) word rich: the last
        letters of its children in the tree walk, which at this ceiling tests
        each letter without editing the index."""
        return "".join(child[-1] for child in _walk(self, len(self._chars) + 1))

    def iter_palindromes(self) -> Iterator[str]:
        """Every distinct nonempty palindromic factor, as a display string.

        Ordered by where each first occurrence ends, as the appends made them.
        """
        s = self.chars
        lens = self._len
        for end, (node, parent) in enumerate(zip(self._lps_node, self._parent), 1):
            if parent >= 0:
                yield s[end - lens[node] : end]


def _walk(idx: PalIndex, max_length: int, canonical: bool = False) -> Iterator[str]:
    """Preorder stream of the strict descendants, up to ``max_length``, of
    the word held in ``idx``: the words that extend it letter by letter,
    each letter creating a palindrome.

    An explicit stack keeps one iterator over the node's candidate letters
    per level, so depth is bounded by memory, not by the interpreter's
    recursion limit. Candidates come in display order for every caller, and
    with ``canonical`` a letter may not skip an unused one. A candidate is
    tested before any edit: it creates a palindrome exactly when the node
    its suffix-link walk reaches has no edge for it yet. A failed letter
    costs no edit, and neither does a child without grandchildren: one at
    ``max_length`` is yielded alone, and one a letter short of it is
    yielded and then its children are tested against the node it would
    add, held in locals, and yielded in turn. Only a child with
    grandchildren is appended, after it is yielded, and popped once they
    are exhausted. So while a word is yielded, ``idx`` holds its parent, or
    its grandparent for a leaf under an unappended node. ``idx`` is walked
    in place and is back at its starting word once the stream is exhausted.
    """
    # The eertree step is inlined on the lists held in locals, split into a
    # read-only test and the edits of ``append``/``pop``: one ``append`` and
    # ``pop`` per candidate held superword-search at 2,746 items/s against
    # 4,176, and enumerate at 477 k against 648 k. Testing the last level
    # against locals, with no append and pop for the nodes above it, took
    # enumerate from 632 k to 729 k. One candidate order for every caller,
    # with no per-node candidate rule, took superword-search from 5,386 to
    # 6,655 (perfbench medians, 2 cores, Python 3.11).
    chars, lens, slink, trans = idx._chars, idx._len, idx._slink, idx._trans
    nodes, parents = idx._lps_node, idx._parent
    word = "".join(chars)
    if len(word) >= max_length:
        return
    letters = idx.alphabet.letters
    top = nodes[-1] if nodes else 1  # the node of the word's longest palindromic suffix
    # one iterator per level, so idx holds the root and len(stack) - 1 letters
    if canonical:
        used = [len(set(word))]  # letters used so far, per level
        stack = [iter(letters[: used[0] + 1])]
    else:
        stack = [iter(letters)]
    while stack:
        ch = next(stack[-1], "")
        if not ch:
            stack.pop()
            if stack:
                ch = chars.pop()
                nodes.pop()
                del trans[parents.pop()][ch]
                lens.pop()
                slink.pop()
                trans.pop()
                word = word[:-1]
                top = nodes[-1] if nodes else 1
                if canonical:
                    used.pop()
            continue
        # the root of length -1 (node 0) always matches, so the walk stops there
        n = len(chars)
        x = top
        while x:
            j = n - lens[x] - 1
            if j >= 0 and chars[j] == ch:
                break
            x = slink[x]
        edges = trans[x]
        if ch in edges:
            continue
        child = word + ch
        yield child
        if n + 1 == max_length:
            continue
        new_len = lens[x] + 2
        if new_len == 1:
            sl = 1
        else:
            y = slink[x]
            while y:
                j = n - lens[y] - 1
                if j >= 0 and chars[j] == ch:
                    break
                y = slink[y]
            sl = trans[y][ch]
        # the child's candidates, shared by the appended level and the leaves
        out = letters
        if canonical:
            k = used[-1]
            if k < len(letters) and ch == letters[k]:
                k += 1
            out = letters[: k + 1]
        if n + 2 == max_length:
            # The child's children are leaves: each is tested against the
            # node the child's append would add (length new_len, suffix link
            # sl, no edges yet) and yielded without an edit. Letters are read
            # from the child string. The edge that append would add, (x, ch),
            # is never the one a leaf's walk reaches: the leaf's palindrome
            # would then be the child's, ending one letter later, and a word
            # ending at two adjacent places is a run of one letter, for which
            # the walk stops at a run one letter longer first.
            m = n + 1
            j = m - new_len - 1
            for c in out:
                if j >= 0 and child[j] == c:
                    yield child + c
                    continue
                y = sl
                while y:
                    i = m - lens[y] - 1
                    if i >= 0 and child[i] == c:
                        break
                    y = slink[y]
                if c not in trans[y]:
                    yield child + c
            continue
        top = len(lens)
        edges[ch] = top
        lens.append(new_len)
        slink.append(sl)
        trans.append({})
        chars.append(ch)
        nodes.append(top)
        parents.append(x)
        word = child
        if canonical:
            used.append(k)
        stack.append(iter(out))


def _index(w: Word) -> PalIndex:
    """An index of any word ``w`` to read: its kept one, else a fresh build
    that is not kept."""
    memo = w._pal
    return PalIndex.of_word(w) if memo is None else memo[0]


class _FlexScan(dict):
    """A word's flex scan: flexed palindrome -> (first arising position,
    standard replacement), inserted in ascending first-arising position,
    and ``lpp``, the length of the word's longest palindromic prefix, which
    reducibility condition 4 reads. ``PalIndex.extend`` builds it in the
    eertree step; a new scan, the empty word's, has ``lpp`` 0."""

    __slots__ = ("lpp",)


def _cut(scan: dict, j: int) -> _FlexScan:
    """A flex scan cut to the length-j prefix: that prefix's own entries.
    Its ``lpp`` is left unset. Entries ascend in position, so only the
    trailing ones beyond j are dropped."""
    out = _FlexScan(scan)
    while out:
        pal, hit = out.popitem()
        if hit[0] <= j:
            out[pal] = hit
            break
    return out


def _move(idx: PalIndex, scan: _FlexScan, s: str, chars: str) -> _FlexScan:
    """Turn ``idx``, the index of ``s`` with flex scan ``scan``, into the
    index of ``chars`` and return the scan of ``chars``; ``scan`` is unchanged.

    The eertree is online: truncating to the common prefix and extending by
    the rest gives what a fresh build would; that one ``extend`` also
    scans the rest, onto the scan cut to the common prefix.
    """
    keep = common_prefix_len(s, chars)
    out = _cut(scan, keep)
    # The palindromic prefixes of s shorter than its longest one P are the
    # palindromic suffixes of P, down P's suffix links: the first of length
    # <= keep is the kept prefix's longest. Read before truncate deletes
    # the nodes of the longer ones.
    lens, slink = idx._len, idx._slink
    node = idx._lps_node[scan.lpp - 1] if scan.lpp else 1
    while lens[node] > keep:
        node = slink[node]
    out.lpp = lens[node]
    idx.truncate(keep)
    idx.extend(chars[keep:], out)
    return out


def _analysis(w: Word) -> tuple[PalIndex, dict]:
    """The analysis ``w`` keeps: its index and flex scan, both built and kept
    on first use. Raises ``NotRich`` when ``w`` is not rich, on every call.
    Neither may be edited."""
    memo = w._pal
    if memo is None:
        memo = w._pal = _owned(w)
    return memo


def _owned(w: Word) -> tuple[PalIndex, dict]:
    """An index of the rich word ``w`` for the caller to move, with ``w``'s
    flex scan: a copy of the index ``w`` keeps, with the kept scan, or else a
    fresh build of both in one pass, which is not kept. Raises ``NotRich``.
    The one place an index is built for a word and its richness checked."""
    memo = w._pal
    if memo is not None:
        return memo[0].copy(), memo[1]
    idx = PalIndex(w.alphabet)
    scan = _FlexScan()
    scan.lpp = 0
    idx.extend(w.chars, scan)
    if not idx.rich:
        raise NotRich(f"{w.chars!r} is not rich")
    return idx, scan


def _keep(w: Word, idx: PalIndex, scan: dict) -> None:
    """Keep ``idx`` and its flex scan ``scan`` as the analysis of ``w``, the
    rich word ``idx`` indexes; nothing may move ``idx`` afterwards."""
    w._pal = (idx, scan)


def lps(w: Word) -> Word:
    """Longest palindromic suffix (the empty word for the empty word)."""
    n = len(w.chars)
    return w[n - _index(w).lps_length(n) :]


def lpp(w: Word) -> Word:
    """Longest palindromic prefix (the empty word for the empty word)."""
    return w[: _index(w).lpp_length(len(w.chars))]


def lpps(w: Word) -> Word:
    """Longest proper palindromic suffix; requires |w| >= 2."""
    if len(w.chars) < 2:
        raise LengthViolation(f"lpps needs length >= 2, got {len(w.chars)}")
    n = len(w.chars)
    return w[n - _index(w).lpps_length(n) :]


def lppp(w: Word) -> Word:
    """Longest proper palindromic prefix; requires |w| >= 2."""
    if len(w.chars) < 2:
        raise LengthViolation(f"lppp needs length >= 2, got {len(w.chars)}")
    return w[: _index(w).lpp_length(len(w.chars) - 1)]


def pal_factors(w: Word) -> set[Word]:
    """All distinct palindromic factors, including the empty word."""
    out = {w._wrap("")}
    for p in _index(w).iter_palindromes():
        out.add(w._wrap(p))
    return out


def pal_factors_avoiding(w: Word, r: Word) -> set[Word]:
    """Palindromic factors of ``w`` in which ``r`` does not occur."""
    return {p for p in pal_factors(w) if r.chars not in p.chars}


def is_rich(w: Word) -> bool:
    """Whether ``w`` has |w| + 1 distinct palindromic factors (with the empty word).

    Tested incrementally: each appended letter must contribute a palindrome
    never seen before, equivalently the longest palindromic suffix of every
    prefix occurs there for the first time. A word that keeps its analysis
    is rich without a build; otherwise the index built here is not kept, so
    a caller holding many words holds no index for each.
    """
    return w._pal is not None or PalIndex.of_word(w).rich


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
    """Index ``w``, raising ``NotRich`` when it is not rich.

    The index is the caller's to edit: a copy of the one ``w`` keeps, or a
    fresh build, not kept, when it keeps none.
    """
    return _owned(w)[0]
