"""Standard extensions: the forced letter, iterates, and maximal extensions."""

import random
import tracemalloc

import pytest

import oracles
from richwords import (
    LengthViolation,
    NotAPrefix,
    NotRich,
    PalIndex,
    ResourceLimit,
    extensions,
    flexed_palindromes,
    is_rich,
    is_std_ext,
    max_std_ext,
    pal_closure,
    rich_extensions,
    std_ext,
    word,
)

W1 = "123999322399932442399932255223993"
W2 = "123999599932239949"


def test_std_ext_examples():
    assert std_ext(word("110101100110")).chars == "1101011001101"
    assert std_ext(word("12399")).chars == "123993"
    assert std_ext(word("00", 2)).chars == "000"
    assert std_ext(word("12399"), 0).chars == "12399"
    assert std_ext(word("12399"), 3).chars == "12399321"
    assert std_ext(word("12399"), 3) == pal_closure(word("12399"))


def test_std_ext_errors():
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        std_ext(word(bad, 2))
    with pytest.raises(LengthViolation):
        std_ext(word("0", 2))
    with pytest.raises(LengthViolation):
        std_ext(word("01", 2), -1)
    for steps in (1.5, 2.0, "2", None):
        with pytest.raises(LengthViolation, match="step count must be an integer"):
            std_ext(word("01", 2), steps)


def test_std_ext_errors_come_in_order():
    # richness, then |w| >= 2, then the step count; NotAPrefix leads max_std_ext
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        std_ext(word(bad, 2), -1)
    with pytest.raises(LengthViolation, match="needs length >= 2"):
        std_ext(word("0", 2), -1)
    with pytest.raises(NotRich):
        is_std_ext(word("0", 2), word(bad, 2))
    with pytest.raises(LengthViolation, match="needs length >= 2"):
        is_std_ext(word("", 2), word("0", 2))
    with pytest.raises(NotAPrefix):
        max_std_ext(word("1", 2), word(bad, 2))
    with pytest.raises(NotRich):
        max_std_ext(word(bad + "0", 2), word(bad, 2))
    # the letter cap comes last
    with pytest.raises(NotRich):
        std_ext(word(bad, 2), 2**63)
    with pytest.raises(LengthViolation, match="needs length >= 2"):
        std_ext(word("0", 2), 2**63)
    with pytest.raises(LengthViolation, match="step count"):
        std_ext(word("01", 2), float(2**63))


def test_huge_step_counts_hit_the_letter_cap_before_any_allocation():
    w = word("01", 2)
    std_ext(w)  # the kept analysis, built before memory is traced
    for steps in (2**63, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="exceeds the cap"):
                std_ext(w, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, steps


def test_letter_cap_counts_the_word_and_its_steps(monkeypatch):
    # the largest pinned use, 10,000 letters extended by as many again, is
    # far below the cap
    assert extensions._LETTER_CAP >= 1000 * 20_000
    monkeypatch.setattr(extensions, "_LETTER_CAP", 10)
    assert std_ext(word("01", 2), 8).chars == "0101010101"
    assert max_std_ext(word("0101010101", 2), word("01", 2)).chars == "0101010101"
    with pytest.raises(ResourceLimit):
        std_ext(word("01", 2), 9)
    with pytest.raises(ResourceLimit):
        is_std_ext(word("01010101010", 2), word("01", 2))


def test_std_ext_matches_oracle_and_stays_rich(rich2):
    for s in rich2:
        if len(s) < 2 or len(s) > 8:
            continue
        out = std_ext(word(s, 2), 2)
        assert out.chars == oracles.std_ext1(oracles.std_ext1(s)), s
        assert len(out) == len(s) + 2
        assert is_rich(out), s


def test_std_ext_reaches_the_palindromic_closure(rich2):
    for s in rich2:
        if len(s) < 2 or len(s) > 9:
            continue
        closure = pal_closure(word(s, 2))
        assert std_ext(word(s, 2), len(closure) - len(s)) == closure, s


def test_is_std_ext_examples():
    assert is_std_ext(word("1101011001101"), word("110101100110"))
    w = word("110101100110")
    assert is_std_ext(w, w)
    assert not is_std_ext(word("1101011001100"), word("110101100110"))
    assert not is_std_ext(word("0110", 2), word("00", 2))


def test_is_std_ext_agrees_with_iterates(rich2):
    for s in rich2:
        if len(s) < 2 or len(s) > 7:
            continue
        w = word(s, 2)
        for j in range(3):
            assert is_std_ext(std_ext(w, j), w), (s, j)


def test_max_std_ext_examples():
    v1 = "1239993223999324423999"
    assert max_std_ext(word(W1), word(v1)).chars == v1 + "322"
    v2 = "1239995999"
    assert max_std_ext(word(W2), word(v2)).chars == v2 + "32"
    w = word("0101", 2)
    assert max_std_ext(w, w) == w


def test_max_std_ext_requires_prefix():
    with pytest.raises(NotAPrefix):
        max_std_ext(word("0101", 2), word("11", 2))


def test_max_std_ext_is_maximal(rich2):
    # The next letter after the returned prefix, if any, must be non-standard.
    for s in rich2:
        if len(s) < 4 or len(s) > 9:
            continue
        v = s[:3]
        got = max_std_ext(word(s, 2), word(v, 2)).chars
        assert got.startswith(v) and s.startswith(got)
        assert is_std_ext(word(got, 2), word(v, 2))
        if len(got) < len(s):
            assert s[len(got)] != oracles.std_letter(got), s


def test_rich_extensions_examples():
    assert rich_extensions(word("", 2)) == frozenset("01")
    assert rich_extensions(word("", 3)) == frozenset("012")
    assert rich_extensions(word("110101100110")) >= {"0", "1"}


def test_rich_extensions_match_oracle(rich2, rich3):
    for s in rich2:
        if len(s) > 8:
            continue
        got = rich_extensions(word(s, 2))
        assert got == frozenset(oracles.rich_letters(s, 2)), s
        assert 1 <= len(got) <= 2
    for s in rich3:
        assert rich_extensions(word(s, 3)) == frozenset(oracles.rich_letters(s, 3)), s


def test_rich_extensions_contain_the_standard_letter(rich2):
    for s in rich2:
        if len(s) < 2:
            continue
        assert oracles.std_letter(s) in rich_extensions(word(s, 2)), s


# -- the closed form against the per-letter reference ---------------------------


def _std_reference(s, q, steps):
    """``steps`` standard letters after ``s``, one ``std_letter`` and
    ``append`` at a time."""
    idx = PalIndex.of_word(word(s, q))
    for _ in range(steps):
        idx.append(idx.std_letter(len(idx)))
    return idx.chars


def _other(ch, q):
    return oracles.letters(q)[(oracles.letters(q).index(ch) + 1) % q]


def _assert_std_calls_agree(s, q, steps, positions):
    """``std_ext``, ``is_std_ext`` and ``max_std_ext`` on ``s`` against the
    reference word, and on that word with one letter changed at each of
    ``positions`` (each past ``s``)."""
    w = word(s, q)
    ref = _std_reference(s, q, steps)
    assert std_ext(w, steps).chars == ref, s
    assert is_std_ext(word(ref, q), w), s
    assert max_std_ext(word(ref, q), w).chars == ref, s
    for i in positions:
        u = word(ref[:i] + _other(ref[i], q) + ref[i + 1 :], q)
        assert not is_std_ext(u, w), (s, i)
        assert is_std_ext(u[:i], w), (s, i)
        assert max_std_ext(u, w).chars == ref[:i], (s, i)


@pytest.mark.parametrize("q, max_len", [(2, 12), (3, 8), (4, 6)])
def test_std_calls_match_the_per_letter_reference(q, max_len):
    for s in oracles.rich_words(q, max_len):
        if len(s) >= 2:
            steps = 2 * len(s) + 3
            _assert_std_calls_agree(s, q, steps, range(len(s), len(s) + steps))


def test_std_calls_match_the_per_letter_reference_on_long_words():
    rng = random.Random(26)
    for n in range(30):
        q = (2, 3, 5)[n % 3]
        idx = PalIndex.of_word(word("", q))
        target = rng.randint(50, 2000)
        while len(idx) < target:
            idx.append(rng.choice(idx.rich_letters()))
        s = idx.chars
        steps = rng.randint(1, 3000)
        positions = sorted(rng.sample(range(len(s), len(s) + steps), min(steps, 20)))
        _assert_std_calls_agree(s, q, steps, positions)


def test_std_calls_copy_and_extend_no_index(monkeypatch):
    s = "123999322399932442399932255223993"
    w = word(s)
    flexed_palindromes(w)  # the analysis the calls read
    q = w.alphabet.size
    longer = word(_std_reference(s, q, 40), q)
    calls = []
    for name in ("copy", "append", "extend"):
        method = getattr(PalIndex, name)

        def spy(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(PalIndex, name, spy)
    of_word = PalIndex.of_word
    monkeypatch.setattr(PalIndex, "of_word", lambda w: calls.append("of_word") or of_word(w))
    assert std_ext(w, 40) == longer
    assert is_std_ext(longer, w)
    assert max_std_ext(longer + "0", w) == longer
    assert calls == []
