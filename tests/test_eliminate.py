"""Marker-preserving trimming, target selection, and the elimination loop."""

import pytest

import oracles
from richwords import (
    NotRich,
    PreconditionViolation,
    ReduciblePair,
    check_reducible,
    eliminate,
    flexed_palindromes,
    is_rich,
    maximal_reducible,
    reverse_unioccurrent,
    shortest_marked_factor,
    word,
)

W3 = "12145656547745656545656547874"
W4 = "12145656547874"


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


def test_shortest_marked_factor_precondition_errors():
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("", 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("1", 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word("010", 2), word("0", 2), word("1", 2))
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(PreconditionViolation):
        shortest_marked_factor(word(bad, 2), word(bad[:1], 2), word(bad[-1:], 2))


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


def test_eliminate_rejects_empty_markers():
    for start, end in (("", ""), ("0", ""), ("", "0")):
        with pytest.raises(PreconditionViolation, match="markers must be nonempty"):
            eliminate(word("010", 2), word(start, 2), word(end, 2))


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
    assert ran > 500 and rewrote > 5 and undefined > 0
