"""Palindrome machinery against the naive oracle, exhaustively at small sizes."""

import contextlib
import copy
import pickle
import random
import re
import sys
import threading

import pytest

import oracles
from richwords import (
    DomainError,
    EmptyPattern,
    LengthViolation,
    NotAFactor,
    NotRich,
    PalIndex,
    ReductionRejection,
    check_reducible,
    complete_returns,
    eliminate,
    flexed_palindromes,
    is_rich,
    is_std_ext,
    lpp,
    lppp,
    lpps,
    lps,
    max_std_ext,
    maximal_reducible,
    pal_closure,
    pal_complexity_profile,
    pal_factors,
    pal_factors_avoiding,
    rich_extensions,
    reduced_word,
    require_rich,
    reverse,
    shortest_marked_factor,
    std_ext,
    word,
)
from richwords.palindromes import _FlexScan, _move, _owned, _walk

W1 = "123999322399932442399932255223993"
WF = "110101100110011"


def all_small_words():
    for n in range(0, 11):
        yield from ((s, 2) for s in oracles.all_words(2, n))
    for n in range(0, 7):
        yield from ((s, 3) for s in oracles.all_words(3, n))


# -- longest palindromic prefix/suffix --------------------------------------


def test_lps_lpp_examples():
    assert lps(word("1239993223999324423999")).chars == "999324423999"
    assert lps(word("1239995999")).chars == "9995999"
    assert lps(word("7", 8)).chars == "7"
    assert lps(word("")).chars == ""
    assert lpp(word("")).chars == ""
    assert lpp(word("0110010", 2)).chars == "0110"


def test_proper_variants_examples():
    assert lpps(word("0110", 2)).chars == "0"
    assert lpps(word("00", 2)).chars == "0"
    assert lppp(word("12399321")).chars == "1"
    assert lpps(word("01", 2)).chars == "1"
    assert lppp(word("01", 2)).chars == "0"


def test_proper_variants_need_length_two():
    for fn in (lpps, lppp):
        with pytest.raises(LengthViolation):
            fn(word("0", 2))
        with pytest.raises(LengthViolation):
            fn(word("", 2))


def test_palindromic_affixes_match_oracle_exhaustively():
    for s, q in all_small_words():
        w = word(s, q)
        assert lps(w).chars == oracles.lps(s), s
        assert lpp(w).chars == oracles.lpp(s), s
        if len(s) >= 2:
            assert lpps(w).chars == oracles.lpps(s), s
            assert lppp(w).chars == oracles.lppp(s), s


def test_palindromic_prefixes_of_an_analysed_word_build_no_index(monkeypatch):
    w = word(WF)
    flexed_palindromes(w)
    built, of_word = [], PalIndex.of_word
    monkeypatch.setattr(PalIndex, "of_word", lambda w: built.append(w) or of_word(w))
    assert lpp(w).chars == oracles.lpp(WF) and lppp(w).chars == oracles.lppp(WF)
    assert built == []


# -- palindromic factor sets -------------------------------------------------


def test_pal_factors_examples():
    assert {f.chars for f in pal_factors(word("0101", 2))} == {"", "0", "1", "010", "101"}
    assert {f.chars for f in pal_factors_avoiding(word("0101", 2), word("0", 2))} == {"", "1"}
    assert {f.chars for f in pal_factors(word("", 2))} == {""}


def test_pal_factors_match_oracle_exhaustively():
    for s, q in all_small_words():
        if len(s) > 8:
            continue
        w = word(s, q)
        assert {f.chars for f in pal_factors(w)} == oracles.pal_set(s), s


def test_pal_factor_count_never_exceeds_length_plus_one():
    for s, q in all_small_words():
        assert len(pal_factors(word(s, q))) <= len(s) + 1, s


# -- richness ---------------------------------------------------------------


def test_is_rich_examples():
    assert is_rich(word(WF))
    assert is_rich(word("", 2))
    assert is_rich(word(W1))


def test_is_rich_matches_counting_oracle_exhaustively():
    # Asked twice of one word: the first answer keeps nothing on it.
    words = [(s, 2) for n in range(11) for s in oracles.all_words(2, n)]
    words += [(s, 3) for n in range(8) for s in oracles.all_words(3, n)]
    for s, q in words:
        w = word(s, q)
        want = oracles.is_rich(s)
        assert is_rich(w) == want and w._pal is None, s
        assert is_rich(w) == want, s


def test_factors_and_reversal_of_rich_words_are_rich(rich2):
    for s in rich2:
        if len(s) != 10:
            continue
        w = word(s, 2)
        assert is_rich(word(s[::-1], 2))
        for f in pal_factors(w):
            assert is_rich(f), (s, f.chars)


def test_require_rich_raises_on_defective_words():
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    assert not is_rich(word(bad, 2))
    with pytest.raises(NotRich):
        require_rich(word(bad, 2))
    assert require_rich(word(WF)).rich


def test_no_two_factors_share_both_affixes_in_rich_words(rich3):
    # Distinct factors of a rich word are separated by their (lps, lpp) pair.
    for s in rich3:
        seen = {}
        for f in {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}:
            key = (oracles.lps(f), oracles.lpp(f))
            assert key not in seen, (s, seen[key], f)
            seen[key] = f


# -- palindromic closure ------------------------------------------------------


def test_pal_closure_examples():
    assert pal_closure(word("12399")).chars == "12399321"
    assert pal_closure(word("01", 2)).chars == "010"
    assert pal_closure(word("0110", 2)).chars == "0110"
    assert pal_closure(word("", 2)).chars == ""


def test_pal_closure_properties_exhaustively():
    for s, q in all_small_words():
        if len(s) > 8:
            continue
        c = pal_closure(word(s, q)).chars
        assert c == oracles.pal_closure(s), s
        assert c == c[::-1]
        assert c.startswith(s)
        assert len(s) == 0 or len(c) < 2 * len(s) + 1


def test_pal_closure_preserves_richness(rich2):
    for s in rich2:
        if s and len(s) <= 9:
            assert is_rich(pal_closure(word(s, 2))), s


# -- complete returns ---------------------------------------------------------


def test_complete_returns_examples():
    assert {f.chars for f in complete_returns(word("00", 2), word("0", 2))} == {"00"}
    crs = {f.chars for f in complete_returns(word(W1), word("999"))}
    assert crs == {"9993223999", "999324423999"}


def test_complete_returns_errors():
    with pytest.raises(EmptyPattern):
        complete_returns(word("01", 2), word("", 2))
    with pytest.raises(NotAFactor):
        complete_returns(word("00", 2), word("11", 2))


def test_complete_returns_match_oracle(rich2):
    for s in rich2:
        if not (5 <= len(s) <= 8):
            continue
        for u in ("0", "1", "00", "010"):
            if u not in s:
                continue
            got = {f.chars for f in complete_returns(word(s, 2), word(u, 2))}
            assert got == oracles.complete_returns(s, u), (s, u)


def test_complete_returns_to_palindromes_are_palindromes(rich2):
    for s in rich2:
        if len(s) != 9:
            continue
        w = word(s, 2)
        for u in pal_factors(w):
            if not u.chars:
                continue
            for f in complete_returns(w, u):
                assert f.chars == f.chars[::-1], (s, u.chars, f.chars)


# -- the incremental index ----------------------------------------------------


def test_index_append_reports_new_palindromes():
    idx = PalIndex.of_word(word("", 2))
    assert idx.append("0") is True
    assert idx.append("0") is True
    assert idx.append("0") is True
    assert idx.append("1") is True
    assert idx.append("0") is True


def test_index_tracks_prefix_statistics_exhaustively():
    for s, q in all_small_words():
        if len(s) > 8:
            continue
        idx = PalIndex.of_word(word(s, q))
        assert idx.chars == s
        assert len(idx) == len(s)
        assert idx.distinct_palindromes == len(oracles.pal_set(s)) - 1
        assert idx.rich == oracles.is_rich(s)
        assert sorted(idx.iter_palindromes()) == sorted(oracles.pal_set(s) - {""})
        assert idx.lpp_length() == len(oracles.lpp(s))
        for k in range(1, len(s) + 1):
            p = s[:k]
            assert idx.lpp_length(k) == len(oracles.lpp(p)), (s, k)
            assert idx.lps_length(k) == len(oracles.lps(p)), (s, k)
            assert idx.lpps_length(k) == len(oracles.lpps(p) if k >= 2 else ""), (s, k)
            assert idx.std_letter(k) == oracles.std_letter(p), (s, k)


def test_index_lps_is_new_detects_first_arisings():
    s = "0100110"
    idx = PalIndex.of_word(word(s, 2))
    seen = set()
    for k in range(1, len(s) + 1):
        p = oracles.lps(s[:k])
        assert idx.lps_is_new(k) == (p not in seen), k
        seen.add(p)


def test_index_rich_letters_match_oracle(rich2):
    for s in rich2:
        if len(s) > 8:
            continue
        idx = require_rich(word(s, 2))
        assert set(idx.rich_letters()) == set(oracles.rich_letters(s, 2)), s


_FIELDS = ("_chars", "_len", "_slink", "_trans", "_lps_node", "_parent")


def _fields(idx):
    """The stored state of an index, copied field for field."""
    return tuple(
        [dict(d) for d in idx._trans] if f == "_trans" else list(getattr(idx, f))
        for f in _FIELDS
    )


def _appended(s, q):
    """An index built by one ``append`` per letter, not through ``extend``."""
    idx = PalIndex(word("", q).alphabet)
    for ch in s:
        idx.append(ch)
    return idx


def reference_scan(idx, s):
    """The flex scan of ``s``, the word in ``idx``, compared letter by letter
    with the standard one: the referee of the scan ``PalIndex.extend`` builds
    inside the eertree step.

    Step k is flexed when its letter is not the standard letter of the
    length-(k-1) prefix, the letter before that prefix's longest proper
    palindromic suffix; its palindrome is kept at its first arising. The
    very first letter is never a flexed step. ``lpp`` is the length of the
    longest palindromic prefix of ``s``.
    """
    lens, slink, nodes = idx._len, idx._slink, idx._lps_node
    out = _FlexScan()
    lpp = 0
    n = len(s)
    for k in range(2, n + 1):
        u_node = nodes[k - 2]
        plen = lens[u_node]
        if plen == k - 1:
            # the length-(k-1) prefix is a palindrome
            lpp = plen
            plen = lens[slink[u_node]]
        std = s[k - 2 - plen]
        if s[k - 1] != std:
            pal = s[k - lens[nodes[k - 1]] : k]
            if pal not in out:
                out[pal] = (k, std + s[k - 1 - plen : k - 1] + std)
    if n and lens[nodes[-1]] == n:
        lpp = n
    out.lpp = lpp
    return out


@contextlib.contextmanager
def refereed_moves():
    """Referee every index move the pipeline makes (the rewrite of
    ``reduced_word`` and ``reduced_prefix``, each elimination pass, each trim
    that cuts the word): the flex scan a move returns must equal a fresh
    index's, entry for entry and in order, its positions must ascend, and
    the longest palindromic prefix it carries must be the fresh index's.
    The fresh index is built by ``append``, so letters counted through
    ``extend`` stay the pipeline's. Yields the list of words moved to."""
    moved = []

    def move(idx, scan, s, chars):
        out = _move(idx, scan, s, chars)
        fresh = PalIndex(idx.alphabet)
        for ch in chars:
            fresh.append(ch)
        assert list(out.items()) == list(reference_scan(fresh, chars).items()), (s, chars)
        positions = [hit[0] for hit in out.values()]
        assert positions == sorted(set(positions)), (s, chars)
        assert out.lpp == fresh.lpp_length(), (s, chars)
        moved.append(chars)
        return out

    with pytest.MonkeyPatch.context() as patch:
        # the package re-exports the function eliminate over its module's name
        for module in ("richwords.reduction", "richwords.eliminate"):
            patch.setattr(sys.modules[module], "_move", move)
        yield moved


def test_extend_and_truncate_match_append_and_pop_field_for_field():
    for q, top in ((2, 10), (3, 7)):
        for n in range(top + 1):
            for s in oracles.all_words(q, n):
                whole = _fields(_appended(s, q))
                popped = [whole]
                idx = _appended(s, q)
                for _ in s:
                    idx.pop()
                    popped.append(_fields(idx))
                for k in range(n + 1):
                    idx = _appended(s[:k], q)
                    idx.extend(s[k:])
                    assert _fields(idx) == whole, (s, k)
                    idx.truncate(k)
                    assert _fields(idx) == popped[n - k], (s, k)


def test_builds_with_and_without_a_scan_leave_the_same_index():
    # The flex scan rides in the eertree step of extend: a build that carries
    # one leaves every index list as a build without, and the scan it leaves
    # is the letter-by-letter reference, on every word, rich or not; the
    # reference scan of every prefix, carried across the rest, ends the same.
    for q, top in ((2, 12), (3, 8)):
        alphabet = word("", q).alphabet
        for n in range(top + 1):
            for s in oracles.all_words(q, n):
                plain = PalIndex(alphabet)
                plain.extend(s)
                want = reference_scan(plain, s)
                for k in range(n + 1):
                    idx = PalIndex(alphabet)
                    idx.extend(s[:k])
                    scan = reference_scan(idx, s[:k])
                    idx.extend(s[k:], scan)
                    assert _fields(idx) == _fields(plain), (s, k)
                    assert list(scan.items()) == list(want.items()), (s, k)
                    assert scan.lpp == want.lpp == plain.lpp_length(), (s, k)
                if oracles.is_rich(s):
                    owned, scan = _owned(word(s, q))
                    assert _fields(owned) == _fields(plain), s
                    assert list(scan.items()) == list(want.items()), s
                    assert scan.lpp == want.lpp, s


def _index_state(idx):
    n = len(idx)
    return (
        idx.chars,
        idx.distinct_palindromes,
        [idx.lps_length(k) for k in range(n + 1)],
        [idx.std_letter(k) for k in range(1, n + 1)],
        list(idx.iter_palindromes()),
    )


def _oracle_order(s, q, canonical):
    """The letters the walker tries after ``s``, in its order."""
    letters = oracles.letters(q)
    return letters[: len(set(s)) + 1] if canonical else letters


def _oracle_preorder(root, q, max_length, canonical):
    """The strict descendants of ``root`` up to ``max_length``, in the
    walker's order, from the naive rich letters."""
    out = []
    if len(root) >= max_length:
        return out
    rich = oracles.rich_letters(root, q)
    for ch in _oracle_order(root, q, canonical):
        if ch in rich:
            out.append(root + ch)
            out += _oracle_preorder(root + ch, q, max_length, canonical)
    return out


def _is_canonical(s, q):
    first_seen = "".join(dict.fromkeys(s))
    return first_seen == oracles.letters(q)[: len(first_seen)]


def test_walk_matches_oracle_preorder_from_every_rich_root():
    # Nonempty roots, letters that fail, and leaves yielded without being
    # appended, with and without ``canonical``. A root one letter short
    # of the ceiling has only leaves below it; one two letters short has
    # children whose own children are tested without an append.
    for q, top in ((2, 7), (3, 4)):
        for root in oracles.rich_words(q, top):
            for canonical in (False, True) if _is_canonical(root, q) else (False,):
                for depth in (1, 2, 3):
                    ceiling = len(root) + depth
                    idx = PalIndex.of_word(word(root, q))
                    got = list(_walk(idx, ceiling, canonical))
                    want = _oracle_preorder(root, q, ceiling, canonical)
                    assert got == want, (root, depth, canonical)
                    assert _fields(idx) == _fields(PalIndex.of_word(word(root, q)))


@pytest.mark.parametrize("q, top", [(2, 14), (3, 9)])
def test_walk_streams_every_rich_word_in_candidate_order(q, top):
    # From the empty word, so appended levels and the last level, tested
    # without an append, are both walked. The want is the oracle's rich
    # words sorted by the rank of each letter among its prefix's candidates.
    words = oracles.rich_words(q, top)
    for canonical in (False, True):
        ranks = {"": ()}
        for s in words[1:]:  # shortest first, so the prefix is ranked
            prefix, ch = s[:-1], s[-1]
            order = _oracle_order(prefix, q, canonical)
            if prefix in ranks and ch in order:
                ranks[s] = ranks[prefix] + (order.index(ch),)
        want = sorted(ranks, key=ranks.get)[1:]
        if not canonical:
            assert len(want) == len(words) - 1
        idx = PalIndex.of_word(word("", q))
        assert list(_walk(idx, top, canonical)) == want
        assert _fields(idx) == _fields(PalIndex.of_word(word("", q)))


def test_no_letter_repeats_a_words_longest_palindromic_suffix():
    # Why the walker's last level needs no edge for the child it does not
    # append: a leaf that reached that edge would end in the child's
    # longest palindromic suffix again, one letter later.
    for q, top in ((2, 13), (3, 8)):
        for s in oracles.rich_words(q, top)[1:]:
            for ch in oracles.letters(q):
                assert oracles.lps(s + ch) != oracles.lps(s), (s, ch)


def test_walk_abandoned_midway_leaves_a_usable_index():
    # Stopped after every word, the stream leaves ``idx`` a valid index of
    # the word it holds (a prefix of the last word yielded); a fresh walk
    # from there streams that word's subtree and then restores ``idx``, and
    # so does a second one.
    for q, top in ((2, 6), (3, 4)):
        for canonical in (False, True):
            full = _oracle_preorder("", q, top, canonical)
            for stop in range(1, len(full) + 1):
                idx = PalIndex.of_word(word("", q))
                stream = _walk(idx, top, canonical)
                assert [next(stream) for _ in range(stop)] == full[:stop]
                stream.close()
                held = idx.chars
                assert full[stop - 1].startswith(held), (full[stop - 1], held)
                assert _fields(idx) == _fields(PalIndex.of_word(word(held, q)))
                if not canonical or _is_canonical(held, q):
                    want = _oracle_preorder(held, q, top, canonical)
                    for _ in range(2):
                        assert list(_walk(idx, top, canonical)) == want
                        assert _fields(idx) == _fields(PalIndex.of_word(word(held, q)))


def test_index_pop_restores_every_statistic():
    rng = random.Random(20260814)
    idx = PalIndex.of_word(word("", 3))
    stack = [""]
    for _ in range(3000):
        s = stack[-1]
        step = rng.random()
        if s and step < 0.4:
            idx.pop()
            stack.pop()
        elif s and step < 0.45:
            k = rng.randrange(len(s) + 1)
            idx.truncate(k)
            del stack[k + 1 :]
        else:
            ch = rng.choice("012")
            idx.append(ch)
            stack.append(s + ch)
        s = stack[-1]
        fresh = PalIndex.of_word(word(s, 3))
        assert idx.chars == s
        assert _fields(idx) == _fields(_appended(s, 3))
        assert idx.distinct_palindromes == fresh.distinct_palindromes
        assert idx.rich == fresh.rich
        if s:
            k = rng.randrange(1, len(s) + 1)
            assert idx.lps_length(k) == fresh.lps_length(k)
            assert idx.lps_is_new(k) == fresh.lps_is_new(k)
        assert idx.lpp_length() == fresh.lpp_length()
        assert list(idx.iter_palindromes()) == list(fresh.iter_palindromes())
        # rich_letters only tests letters: the index must stay as it is
        state = _index_state(idx)
        assert idx.rich_letters() == fresh.rich_letters()
        assert _index_state(idx) == state


def test_prefix_queries_reject_out_of_range_lengths():
    idx = PalIndex.of_word(word("0110", 2))
    assert [idx.lps_length(k) for k in range(5)] == [0, 1, 1, 2, 4]
    for query, bad in (
        (idx.lps_length, (-1, 5, 1.5, 2.0)),
        (idx.lpp_length, (-1, 5, 1.5, 2.0)),
        (idx.lps_is_new, (-1, 0, 5, 1.5, 2.0)),
        (idx.lpps_length, (-1, 0, 5, 1.5, 2.0)),
        (idx.std_letter, (-1, 0, 5, 1.5, 2.0)),
        (idx.truncate, (-1, 5, 1.5, 2.0)),
    ):
        for k in bad:
            with pytest.raises(LengthViolation, match=rf"in \d\.\.4, got {k}$"):
                query(k)
    assert idx.chars == "0110"


# -- the analysis slot ---------------------------------------------------------


def test_non_rich_word_is_refused_on_every_repeat_call():
    bad = word(next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s)), 2)
    start, end = bad[:1], bad[-1:]
    for _ in range(3):
        for call in (require_rich, flexed_palindromes, std_ext, rich_extensions):
            with pytest.raises(NotRich, match="is not rich"):
                call(bad)
        for call in (shortest_marked_factor, eliminate):
            with pytest.raises(NotRich, match="is not rich"):
                call(bad, start, end)
        assert check_reducible(bad, bad[:3]) == ReductionRejection(1, "word is not rich")
        assert not is_rich(bad)
        assert bad._pal is None


def test_derived_words_start_unproved():
    w = word(WF)
    flexed_palindromes(w)
    assert is_rich(w) and w._pal is not None
    for derived in (w + w, w + "0", reverse(w), pal_closure(w), w._wrap(WF), w[:]):
        assert derived._pal is None, derived


def test_is_rich_keeps_nothing_and_reads_a_kept_analysis(monkeypatch):
    words = [word(s) for s in (WF, W1, "0110", "")]
    for w in words:
        assert is_rich(w) and w._pal is None, w
        flexed_palindromes(w)
    built, of_word = [], PalIndex.of_word
    monkeypatch.setattr(PalIndex, "of_word", lambda w: built.append(w) or of_word(w))
    assert all(is_rich(w) for w in words) and built == []


def test_library_keeps_one_analysis_per_rich_word():
    w = word(WF)
    recs = flexed_palindromes(w)
    kept = w._pal
    idx, scan = kept
    assert idx.chars == WF and scan is not None
    target = next(r.palindrome for r in recs if len(r.palindrome) > 2)
    check_reducible(w, target)
    std_ext(w, 4)
    rich_extensions(w)
    shortest_marked_factor(w, w[:1], w[-1:])
    # the same index, never moved: no call built or edited another
    assert w._pal is kept and w._pal[0] is idx
    assert _fields(idx) == _fields(PalIndex.of_word(word(WF)))


def test_no_public_reader_edits_the_kept_index(monkeypatch):
    w = word(WF)
    flexed_palindromes(w)
    kept = w._pal[0]
    before = _fields(kept)
    edits, reader = [], [None]
    for name in ("append", "pop", "extend", "truncate"):
        method = getattr(PalIndex, name)

        def spy(self, *args, _name=name, _method=method):
            if self is kept:
                edits.append((reader[0], _name))
            return _method(self, *args)

        monkeypatch.setattr(PalIndex, name, spy)
    longer = std_ext(word(WF), 5)  # another word: its index is not the one watched
    readers = {
        "rich_extensions": lambda: rich_extensions(w),
        "std_ext": lambda: std_ext(w, 3),
        "is_std_ext": lambda: is_std_ext(longer, w),
        "max_std_ext": lambda: max_std_ext(longer + "0", w),
        "flexed_palindromes": lambda: flexed_palindromes(w),
        "lps/lpp": lambda: (lps(w), lpp(w), lpps(w), lppp(w)),
        "pal_factors": lambda: pal_factors(w),
        "pal_complexity_profile": lambda: pal_complexity_profile(w),
        "maximal_reducible": lambda: maximal_reducible(w, 1),
        "shortest_marked_factor": lambda: shortest_marked_factor(w, w[:1], w[-1:]),
        "eliminate": lambda: eliminate(w, w[:1], w[-1:]),
        "require_rich": lambda: require_rich(w),
    }
    for name, call in readers.items():
        reader[0] = name
        call()
    assert edits == []
    assert w._pal[0] is kept and _fields(kept) == before


def test_concurrent_look_aheads_on_one_word_agree_and_keep_its_index():
    rng = random.Random(20261020)
    idx = PalIndex.of_word(word("", 3))
    while len(idx) < 40:
        idx.append(rng.choice(idx.rich_letters()))
    s = idx.chars
    w = word(s, 3)
    expected = (rich_extensions(w), std_ext(w, 3))
    failures = []

    def hammer():
        try:
            for _ in range(2000):
                got = (rich_extensions(w), std_ext(w, 3))
                if got != expected:
                    failures.append(got)
        except Exception as exc:  # any error is a failure to report
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert _fields(w._pal[0]) == _fields(PalIndex.of_word(word(s, 3)))


def test_caller_edits_to_required_index_change_no_later_answer():
    w = word(WF)
    recs = flexed_palindromes(w)
    target = next(r.palindrome for r in recs if len(r.palindrome) > 2)
    verdict = check_reducible(w, target)
    idx = require_rich(w)
    assert idx is not w._pal[0] and idx.chars == WF
    idx.append("0")
    idx.extend("1101")
    idx.truncate(3)
    assert flexed_palindromes(w) == recs
    assert check_reducible(w, target) == verdict
    assert require_rich(w).chars == WF


def test_index_edits_reject_bad_input_and_leave_the_index_unchanged():
    for s in ("", "0110"):
        idx = PalIndex.of_word(word(s, 2))
        before = _fields(idx)
        bad = [
            (lambda: idx.append("z"), "letter 'z' is not in the 2-letter alphabet"),
            (lambda: idx.append("2"), "letter '2' is not in the 2-letter alphabet"),
            (lambda: idx.append("01"), "append takes exactly one letter, got '01'"),
            (lambda: idx.append(""), "append takes exactly one letter, got ''"),
            (lambda: idx.extend("0x1"), "letter 'x' is not in the 2-letter alphabet"),
        ]
        for edit, message in bad:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                edit()
            assert _fields(idx) == before, (s, message)
    empty = PalIndex.of_word(word("", 2))
    with pytest.raises(LengthViolation, match="pop needs length >= 1"):
        empty.pop()
    assert _fields(empty) == _fields(PalIndex.of_word(word("", 2)))


def test_index_copy_is_independent_of_its_source():
    for s, q in (("", 2), ("0", 2), (WF, 2), ("0120102", 3)):
        source = PalIndex.of_word(word(s, q))
        before = _fields(source)
        dup = source.copy()
        assert _fields(dup) == before
        for ch in "01":
            dup.append(ch)
        assert _fields(source) == before, s
        source.extend("10")
        dup.truncate(len(s))
        assert _fields(dup) == before, s


def test_library_marks_the_words_it_proves_rich():
    w = word(WF)
    require_rich(w)
    assert w._pal is None
    res, _ = reduced_word(word("12145656547745656545656547874"), word("656"))
    assert res._pal is not None and oracles.is_rich(res.chars)
    final, _ = eliminate(word(WF), word("1", 2), word("1", 2))
    assert final._pal is not None and oracles.is_rich(final.chars)
    for kept in (res, final):
        idx, scan = kept._pal
        fresh = PalIndex.of_word(word(kept.chars, kept.alphabet.size))
        assert _fields(idx) == _fields(fresh)
        assert list(scan.items()) == list(reference_scan(fresh, kept.chars).items())


def test_proved_slot_is_invisible_to_equality_hash_and_repr():
    proved, fresh = word(WF), word(WF)
    flexed_palindromes(proved)
    assert proved._pal is not None and fresh._pal is None
    assert proved == fresh and hash(proved) == hash(fresh)
    assert repr(proved) == repr(fresh)


def test_copied_and_pickled_words_stay_usable():
    for w in (word(WF), word("0101101", 2)):
        want = oracles.is_rich(w.chars)
        is_rich(w)
        for clone in (copy.copy(w), pickle.loads(pickle.dumps(w))):
            assert clone == w and clone.alphabet == w.alphabet
            assert is_rich(clone) == want
            assert (clone + clone).chars == w.chars * 2


def test_copies_and_pickles_leave_the_analysis_behind():
    analysed = word(WF)
    flexed_palindromes(analysed)
    assert analysed._pal is not None
    assert len(pickle.dumps(analysed)) == len(pickle.dumps(word(WF)))
    for clone in (copy.copy(analysed), copy.deepcopy(analysed)):
        assert clone == analysed and clone._pal is None
        assert flexed_palindromes(clone) == flexed_palindromes(analysed)
        assert clone._pal[0] is not analysed._pal[0]
