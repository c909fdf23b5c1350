"""Palindrome machinery against the naive oracle, exhaustively at small sizes."""

import copy
import pickle
import random

import pytest

import oracles
from richwords import (
    EmptyPattern,
    LengthViolation,
    NotAFactor,
    NotRich,
    PalIndex,
    PreconditionViolation,
    complete_returns,
    eliminate,
    is_rich,
    lpp,
    lppp,
    lpps,
    lps,
    pal_closure,
    pal_factors,
    pal_factors_avoiding,
    reduced_word,
    require_rich,
    reverse,
    shortest_marked_factor,
    word,
)

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
    # Asked twice of one word: the second answer may come from the proved slot.
    words = [(s, 2) for n in range(11) for s in oracles.all_words(2, n)]
    words += [(s, 3) for n in range(8) for s in oracles.all_words(3, n)]
    for s, q in words:
        w = word(s, q)
        want = oracles.is_rich(s)
        assert is_rich(w) == want and w._rich == want, s
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


def _index_state(idx):
    n = len(idx)
    return (
        idx.chars,
        idx.distinct_palindromes,
        [idx.lps_length(k) for k in range(n + 1)],
        [idx.std_letter(k) for k in range(1, n + 1)],
        list(idx.iter_palindromes()),
    )


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
        # rich_letters appends and pops each letter: the index must come back
        state = _index_state(idx)
        assert idx.rich_letters() == fresh.rich_letters()
        assert _index_state(idx) == state


def test_prefix_queries_reject_out_of_range_lengths():
    idx = PalIndex.of_word(word("0110", 2))
    assert [idx.lps_length(k) for k in range(5)] == [0, 1, 1, 2, 4]
    for query, bad in (
        (idx.lps_length, (-1, 5)),
        (idx.lps_is_new, (-1, 0, 5)),
        (idx.lpps_length, (-1, 0, 5)),
        (idx.std_letter, (-1, 0, 5)),
        (idx.truncate, (-1, 5)),
    ):
        for k in bad:
            with pytest.raises(LengthViolation, match=rf"in \d\.\.4, got {k}$"):
                query(k)
    assert idx.chars == "0110"


# -- the proved-richness slot -------------------------------------------------


def test_non_rich_word_is_refused_on_every_repeat_call():
    bad = word(next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s)), 2)
    start, end = bad[:1], bad[-1:]
    for _ in range(3):
        with pytest.raises(PreconditionViolation, match="is not rich"):
            shortest_marked_factor(bad, start, end)
        assert not bad._rich


def test_derived_words_start_unproved():
    w = word(WF)
    assert is_rich(w) and w._rich
    for derived in (w + w, w + "0", reverse(w), pal_closure(w), w._wrap(WF), w[:]):
        assert not derived._rich, derived


def test_library_marks_the_words_it_proves_rich():
    w = word(WF)
    require_rich(w)
    assert w._rich
    res, _ = reduced_word(word("12145656547745656545656547874"), word("656"))
    assert res._rich and oracles.is_rich(res.chars)
    final, _ = eliminate(word(WF), word("1", 2), word("1", 2))
    assert final._rich and oracles.is_rich(final.chars)


def test_proved_slot_is_invisible_to_equality_hash_and_repr():
    proved, fresh = word(WF), word(WF)
    assert is_rich(proved) and not fresh._rich
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
