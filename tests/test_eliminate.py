"""Marker-preserving trimming, target selection, and the elimination loop."""

import importlib
import random

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import oracles
from richwords import (
    Alphabet,
    InternalInconsistency,
    NotRich,
    PalIndex,
    PreconditionViolation,
    ReduciblePair,
    check_reducible,
    eliminate,
    flexed_palindromes,
    is_rich,
    maximal_reducible,
    reduced_word,
    reverse_unioccurrent,
    shortest_marked_factor,
    word,
)
from richwords.eliminate import _marked_span
from test_palindromes import refereed_moves

W3 = "12145656547745656545656547874"
W4 = "12145656547874"


@pytest.fixture(autouse=True)
def _refereed():
    # Every index move a test here makes is refereed, by a fixture rather
    # than a line in each test. The property tests' examples are pinned by
    # @seed, so they do not depend on the bodies' source.
    with refereed_moves():
        yield


# -- reverse-unioccurrence ----------------------------------------------------


def test_reverse_unioccurrent_examples():
    # "010" holds "01" once and its reversal "10" once: two pooled occurrences.
    assert not reverse_unioccurrent(word("010", 2), word("01", 2))
    assert reverse_unioccurrent(word("001", 2), word("01", 2))
    assert reverse_unioccurrent(word("00", 2), word("00", 2))
    assert not reverse_unioccurrent(word("000", 2), word("00", 2))
    assert reverse_unioccurrent(word("0", 2), word("0", 2))
    assert not reverse_unioccurrent(word("010", 2), word("0", 2))
    assert reverse_unioccurrent(word("010", 2), word("010", 2))


def test_reverse_unioccurrent_matches_oracle(rich2):
    pats = ["0", "1", "00", "01", "010", "0110", "001"]
    for s in rich2:
        if len(s) > 8:
            continue
        for p in pats:
            assert reverse_unioccurrent(word(s, 2), word(p, 2)) == \
                oracles.rev_unioccurrent(s, p), (s, p)


# -- shortest marked factor ----------------------------------------------------


def test_shortest_marked_factor_examples():
    assert shortest_marked_factor(word("010", 2), word("0", 2), word("0", 2)).chars == "0"
    w = word("01", 2)
    assert shortest_marked_factor(w, w, w) == w


def test_shortest_marked_factor_ordering_matches_window_oracle(rich2):
    for s in rich2:
        if not 3 <= len(s) <= 8:
            continue
        for a in (1, 2):
            for b in (1, 2):
                p1, p2 = s[:a], s[-b:]
                windows = oracles.marked_windows(s, p1, p2)
                windows = [
                    (i, j)
                    for i, j in windows
                    if (s.startswith(p1, i) or s.startswith(p1[::-1], i))
                    and (s[i:j].endswith(p2) or s[i:j].endswith(p2[::-1]))
                ]
                if not windows:
                    with pytest.raises(PreconditionViolation):
                        shortest_marked_factor(word(s, 2), word(p1, 2), word(p2, 2))
                    continue
                i, j = windows[0]
                got = shortest_marked_factor(word(s, 2), word(p1, 2), word(p2, 2))
                assert got.chars == s[i:j], (s, p1, p2)


def _letter_canonical_words(q: int, max_len: int):
    """Every word over q letters up to max_len, one per renaming of letters:
    letters first appear in alphabet order. The marker trim compares letters
    only for equality, so these stand for every word of those lengths."""
    for n in range(1, max_len + 1):
        for s in oracles.all_words(q, n):
            firsts = "".join(sorted(set(s), key=s.index))
            if firsts == oracles.letters(len(firsts)):
                yield s


def test_marked_span_matches_window_oracle_on_arbitrary_factor_markers():
    # Markers are any factors of length 1-3, so nested and overlapping pairs
    # (where no window exists) are included. The oracle pools orientations;
    # the orientation handed to the trim cycles through all four choices.
    found = undefined = 0
    for s in _letter_canonical_words(3, 7):
        classes = sorted(
            {min(f, f[::-1]) for a in (1, 2, 3) for f in
             (s[i : i + a] for i in range(len(s) - a + 1))}
        )
        for c1 in classes:
            for c2 in classes:
                first = next(
                    (
                        (i, j)
                        for i, j in oracles.marked_windows(s, c1, c2)
                        if (s.startswith(c1, i) or s.startswith(c1[::-1], i))
                        and (s[i:j].endswith(c2) or s[i:j].endswith(c2[::-1]))
                    ),
                    None,
                )
                turn = found + undefined
                p1 = c1[::-1] if turn & 1 else c1
                p2 = c2[::-1] if turn & 2 else c2
                if first is None:
                    undefined += 1
                    with pytest.raises(PreconditionViolation):
                        _marked_span(s, p1, p2)
                else:
                    found += 1
                    assert _marked_span(s, p1, p2) == first, (s, p1, p2)
    assert found > 10_000 and undefined > 10_000


def test_marked_span_matches_window_oracle_on_four_letter_markers():
    # The benchmark's corpus sweep and criterion 04 trim with markers of up
    # to 4 letters: every pair of factor classes of 1-4 letters of binary
    # words up to 9 letters, each marker handed in all four orientations.
    found = undefined = 0
    for s in _letter_canonical_words(2, 9):
        classes = sorted(
            {min(f, f[::-1]) for a in (1, 2, 3, 4) for f in
             (s[i : i + a] for i in range(len(s) - a + 1))}
        )
        for c1 in classes:
            for c2 in classes:
                first = next(
                    (
                        (i, j)
                        for i, j in oracles.marked_windows(s, c1, c2)
                        if (s.startswith(c1, i) or s.startswith(c1[::-1], i))
                        and (s[i:j].endswith(c2) or s[i:j].endswith(c2[::-1]))
                    ),
                    None,
                )
                for p1 in {c1, c1[::-1]}:
                    for p2 in {c2, c2[::-1]}:
                        if first is None:
                            undefined += 1
                            with pytest.raises(PreconditionViolation):
                                _marked_span(s, p1, p2)
                        else:
                            found += 1
                            assert _marked_span(s, p1, p2) == first, (s, p1, p2)
    assert found > 80_000 and undefined > 60_000


def _is_whole(s, p1, p2):
    # The trim's test for a word that is its own marked window.
    try:
        return _marked_span(s, p1, p2) == (0, len(s))
    except PreconditionViolation:
        return False


def test_whole_window_check_agrees_with_the_window_oracle():
    # A word is its own marked window exactly when the oracle's first window
    # is all of it; so is every window the oracle accepts (trimming it again
    # keeps all of it). Checked over the arbitrary-marker sweep, with each
    # marker handed in either orientation.
    windows = set()
    for s in _letter_canonical_words(3, 7):
        classes = sorted(
            {min(f, f[::-1]) for a in (1, 2, 3) for f in
             (s[i : i + a] for i in range(len(s) - a + 1))}
        )
        for c1 in classes:
            for c2 in classes:
                spans = [
                    (i, j)
                    for i, j in oracles.marked_windows(s, c1, c2)
                    if (s.startswith(c1, i) or s.startswith(c1[::-1], i))
                    and (s[i:j].endswith(c2) or s[i:j].endswith(c2[::-1]))
                ]
                whole = spans[:1] == [(0, len(s))]
                for p1 in (c1, c1[::-1]):
                    for p2 in (c2, c2[::-1]):
                        assert _is_whole(s, p1, p2) == whole, (s, p1, p2)
                windows.update((s[i:j], c1, c2) for i, j in spans)
    for t, c1, c2 in windows:
        for p1 in (c1, c1[::-1]):
            for p2 in (c2, c2[::-1]):
                assert _marked_span(t, p1, p2) == (0, len(t)), (t, p1, p2)
    assert len(windows) > 2_000


def test_shortest_marked_factor_precondition_errors():
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("", 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("1", 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("0", 2), word("1", 2))
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        shortest_marked_factor(word(bad, 2), word(bad[:1], 2), word(bad[-1:], 2))
    # A rich word cannot begin or end with a non-rich marker.
    with pytest.raises(PreconditionViolation, match="does not begin with"):
        shortest_marked_factor(word("010", 2), word(bad, 2), word("0", 2))
    with pytest.raises(PreconditionViolation, match="does not end with"):
        shortest_marked_factor(word("010", 2), word("0", 2), word(bad, 2))


def test_shortest_marked_factor_can_be_undefined_for_nested_markers():
    # Every factor ending with the doubled letter repeats the single letter,
    # so no factor carries both markers exactly once.
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("00", 2), word("0", 2), word("00", 2))


# -- maximal reducible target ----------------------------------------------------


def test_maximal_reducible_examples():
    assert maximal_reducible(word(W3), 1).chars == "545"
    assert maximal_reducible(word(W3), 2).chars == "545"
    assert maximal_reducible(word(W3), 3).chars == ""
    assert maximal_reducible(word(W3), 4).chars == ""
    assert maximal_reducible(word(W4), 1).chars == "656"
    assert maximal_reducible(word(W4), 2).chars == "656"
    assert maximal_reducible(word("00", 2), 1).chars == ""


def test_maximal_reducible_ordering():
    # Both length-3 flexed palindromes of the long example are reducible;
    # the lexicographically smaller one wins.
    for r in ("545", "656"):
        assert isinstance(check_reducible(word(W3), word(r)), ReduciblePair)
    assert maximal_reducible(word(W3), 2).chars == "545"


def test_maximal_reducible_floor_validation():
    with pytest.raises(PreconditionViolation):
        maximal_reducible(word(W3), 0)
    with pytest.raises(PreconditionViolation):
        maximal_reducible(word("010", 2), -2)
    for floor in (1.5, 2.0, "2", None):
        with pytest.raises(PreconditionViolation, match="floor must be a positive integer"):
            maximal_reducible(word(W3), floor)


def test_maximal_reducible_returns_accepted_targets_only(rich2):
    for s in rich2:
        if len(s) < 4:
            continue
        for floor in (1, 2):
            r = maximal_reducible(word(s, 2), floor)
            if not r.chars:
                continue
            assert len(r.chars) > floor, (s, floor)
            assert isinstance(check_reducible(word(s, 2), r), ReduciblePair), (s, floor)


# -- the elimination loop ----------------------------------------------------------


def test_eliminate_single_rewrite_example():
    res, trace = eliminate(word("000000001011", 2), word("00", 2), word("11", 2))
    assert res.chars == "0011"
    assert trace.iterations == 1
    assert trace.initial.chars == "001011"
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.before.chars == "001011"
    assert step.target.chars == "101"
    assert step.after.chars == "0011"
    assert trace.final == res


def test_eliminate_single_rewrite_second_example():
    res, trace = eliminate(word("000000010011", 2), word("000", 2), word("11", 2))
    assert res.chars == "00011"
    assert trace.iterations == 1
    assert [s.target.chars for s in trace.steps] == ["1001"]


def test_eliminate_first_trim_inside_the_palindromic_prefix():
    # The first window 001011 is a prefix of the word, whose longest
    # palindromic prefix 0010110100 reaches past it: condition 4 must look
    # at the window's own palindromic prefix, 00, to accept the target 101.
    res, trace = eliminate(word("00101101001011", 2), word("00", 2), word("11", 2))
    assert trace.initial.chars == "001011"
    assert [st.target.chars for st in trace.steps] == ["101"]
    assert res.chars == "0011"


def test_eliminate_zero_iterations_when_trimming_suffices():
    res, trace = eliminate(word(W3), word("121"), word("874"))
    assert trace.iterations == 0 and not trace.steps
    assert res.chars == W3[:27]
    assert res == trace.initial
    res, trace = eliminate(word(W3), word("121"), word("47874"))
    assert trace.iterations == 0
    assert res.chars == W3


def test_eliminate_trace_serialization():
    res, trace = eliminate(word("000000001011", 2), word("00", 2), word("11", 2))
    rec = trace.to_record()
    assert rec["word"] == "000000001011"
    assert rec["start"] == "00" and rec["end"] == "11"
    assert rec["initial"] == "001011"
    assert rec["final"] == "0011"
    assert rec["iterations"] == 1
    assert rec["steps"][0]["target"] == "101"
    assert rec["steps"][0]["reduction"]["case"] == "closure"


def test_eliminate_precondition_errors():
    with pytest.raises(PreconditionViolation):
        eliminate(word("0101", 2), word("1", 2), word("1", 2))
    with pytest.raises(PreconditionViolation):
        eliminate(word("0101", 2), word("0", 2), word("0", 2))
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        eliminate(word(bad, 2), word(bad[:1], 2), word(bad[-1:], 2))
    with pytest.raises(PreconditionViolation):
        eliminate(word("00", 2), word("0", 2), word("00", 2))
    # the marker rule is checked before the word's richness
    other = "1" if bad.endswith("0") else "0"
    for call in (shortest_marked_factor, eliminate):
        with pytest.raises(PreconditionViolation, match="does not end with"):
            call(word(bad, 2), word(bad[:1], 2), word(other, 2))


def test_eliminate_rejects_empty_markers():
    for start, end in (("", ""), ("0", ""), ("", "0")):
        with pytest.raises(PreconditionViolation, match="markers must be nonempty"):
            eliminate(word("010", 2), word(start, 2), word(end, 2))


def test_a_trim_that_loses_a_marker_is_an_internal_error(monkeypatch):
    # The marked window always keeps both markers; one that does not breaks
    # the marker rule the public calls check, as an internal error.
    module = importlib.import_module("richwords.eliminate")
    monkeypatch.setattr(module, "_marked_span", lambda s, p1, p2: (0, len(s) - 1))
    with pytest.raises(InternalInconsistency) as caught:
        eliminate(word("0012", 3), word("0", 3), word("2", 3))
    assert type(caught.value) is InternalInconsistency
    assert str(caught.value) == "'001' does not end with the end marker '2' or its reverse"


def test_eliminate_takes_markers_up_to_reversal(rich2):
    # The referee for markers a word carries reversed at its ends: eliminate
    # equals trimming to the marked window, turning each marker to the
    # window's orientation, and eliminating there, or fails as the trim does.
    words = [(s, 2) for s in rich2] + [(s, 3) for s in oracles.rich_words(3, 7)]
    runs = reversed_runs = 0
    for s, q in words:
        w = word(s, q)
        for a in range(1, min(3, len(s)) + 1):
            for b in range(1, min(3, len(s)) + 1):
                for p1 in dict.fromkeys((s[:a], s[:a][::-1])):
                    for p2 in dict.fromkeys((s[-b:], s[-b:][::-1])):
                        start, end = word(p1, q), word(p2, q)
                        try:
                            win = shortest_marked_factor(w, start, end).chars
                        except PreconditionViolation as exc:
                            with pytest.raises(PreconditionViolation) as got:
                                eliminate(w, start, end)
                            assert str(got.value) == str(exc)
                            continue
                        p1w = p1 if win.startswith(p1) else p1[::-1]
                        p2w = p2 if win.endswith(p2) else p2[::-1]
                        want = eliminate(word(win, q), word(p1w, q), word(p2w, q))[1]
                        got = eliminate(w, start, end)[1]
                        assert (got.initial, got.steps, got.final, got.iterations) == (
                            want.initial, want.steps, want.final, want.iterations
                        ), (s, p1, p2)
                        runs += 1
                        reversed_runs += not (s.startswith(p1) and s.endswith(p2))
    assert (runs, reversed_runs) == (58_876, 29_194)


def test_eliminate_loop_invariants_on_corpus(rich2):
    ran = rewrote = undefined = 0
    for s in rich2:
        if not 4 <= len(s) <= 9:
            continue
        w = word(s, 2)
        flex_occ = sum(
            oracles.occ(s, f.palindrome.chars) for f in flexed_palindromes(w)
        )
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            p1, p2 = word(s[:a], 2), word(s[-b:], 2)
            try:
                res, trace = eliminate(w, p1, p2)
            except PreconditionViolation:
                undefined += 1
                continue
            ran += 1
            rewrote += bool(trace.steps)
            m = max(a, b)
            out = res.chars
            assert is_rich(res), (s, a, b)
            assert out.startswith(p1.chars) or out.startswith(p1.chars[::-1])
            assert out.endswith(p2.chars) or out.endswith(p2.chars[::-1])
            assert oracles.rev_unioccurrent(out, p1.chars), (s, a, b)
            assert oracles.rev_unioccurrent(out, p2.chars), (s, a, b)
            assert trace.iterations == len(trace.steps) <= flex_occ
            assert maximal_reducible(res, m).chars == "", (s, a, b)
            chain = [trace.initial] + [st.after for st in trace.steps]
            assert chain[-1] == trace.final == res
            for st, prev in zip(trace.steps, chain):
                assert st.before == prev
                assert st.reduction.pair.word == st.before
                assert st.reduction.pair.target == st.target
                # the loop's rewrite is the public one
                assert st.reduction == reduced_word(st.before, st.target)[1]
    assert ran > 500 and rewrote > 5 and undefined > 0


@st.composite
def framed_rich_words(draw):
    """A random rich word of 50-2,000 letters over q <= 4 letters, framed by two
    letters it does not use: (framed word, alphabet size, start, end)."""
    q = draw(st.integers(1, 4))
    n = draw(st.integers(50, 2000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    idx = PalIndex(Alphabet(q))
    for _ in range(n):
        idx.append(rng.choice(idx.rich_letters()))
    start, end = oracles.letters(q + 2)[q:]
    return start + idx.chars + end, q + 2, start, end


@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The seed derandomize=True drew from this test's source before it was
# pinned, so its 25 examples stay the same when its body is edited.
@seed(
    2281089473529466459422543837314565067093708269836551710834649228723789584799224310840797783662151581597189372876245
)
@given(framed_rich_words())
def test_eliminate_long_random_words_against_oracles(case):
    s, q, a, b = case
    assert oracles.is_rich(s)
    w, start, end = word(s, q), word(a, q), word(b, q)
    trimmed = shortest_marked_factor(w, start, end)
    assert oracles.rev_unioccurrent(trimmed.chars, a)
    assert oracles.rev_unioccurrent(trimmed.chars, b)
    res, trace = eliminate(w, start, end)
    assert trace.initial == trimmed
    for step in trace.steps:
        t = step.target.chars
        rewrite = step.reduction.result.chars
        assert oracles.occ(rewrite, t) < oracles.occ(step.before.chars, t), (s, t)
        assert step.after.chars in rewrite, (s, t)
        assert oracles.is_rich(step.after.chars), (s, t)
    out = res.chars
    assert oracles.is_rich(out), s
    assert out.startswith(a) and out.endswith(b), s
    assert oracles.rev_unioccurrent(out, a) and oracles.rev_unioccurrent(out, b), s
    # Markers have length 1, so the floor is 1: what survives above it can
    # only be a flexed xx that condition 2 keeps the loop from touching.
    for pal in oracles.flexed(out):
        assert len(pal) == 1 or (len(pal) == 2 and pal[0] == pal[1]), (s, pal)


def test_framed_word_is_indexed_once_from_trim_to_elimination(monkeypatch):
    # Fresh-letter markers make the marked window the whole word, which the
    # trim returns as itself with the index its richness check built;
    # eliminate moves a copy of that index, so the two calls build one.
    rng = random.Random(16)
    idx = PalIndex(Alphabet(3))
    while len(idx) < 298:
        idx.append(rng.choice(idx.rich_letters()))
    w, start, end = word("3" + idx.chars + "4", 5), word("3", 5), word("4", 5)
    built = []
    extend = PalIndex.extend

    def counted(self, text, scan=None):
        if not len(self):
            built.append(len(text))
        extend(self, text, scan)

    monkeypatch.setattr(PalIndex, "extend", counted)
    win = shortest_marked_factor(w, start, end)
    res, trace = eliminate(win, start, end)
    assert win is w and trace.iterations > 0
    assert built == [300]
    monkeypatch.undo()
    assert res == eliminate(word(w.chars, 5), start, end)[0]
