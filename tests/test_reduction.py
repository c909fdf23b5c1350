"""Flexed palindromes and the occurrence-reducing rewrite."""

import random

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import oracles
from richwords import (
    Alphabet,
    DomainError,
    InternalInconsistency,
    NonMaximalRewrite,
    NotAFlexedPalindrome,
    NotReducible,
    NotRich,
    PalIndex,
    ReduciblePair,
    ReductionCase,
    ReductionRejection,
    check_reducible,
    eliminate,
    flexed_palindromes,
    is_rich,
    is_std_ext,
    lcp,
    lcs,
    max_std_ext,
    maximal_reducible,
    occ,
    pal_complexity_profile,
    parse,
    reduced_prefix,
    reduced_word,
    rich_extensions,
    shortest_marked_factor,
    standard_replacement,
    std_ext,
    word,
)
from richwords.palindromes import _analysis, _move
from richwords.reduction import _parse_triple
from test_palindromes import _fields, reference_scan, refereed_moves

W1 = "123999322399932442399932255223993"
W2 = "123999599932239949"
W3 = "12145656547745656545656547874"
W4 = "12145656547874"
WF = "110101100110011"


@pytest.fixture(autouse=True)
def _refereed():
    # Every index move a test here makes is refereed, by a fixture rather
    # than a line in each test. The property tests' examples are pinned by
    # @seed, so they do not depend on the bodies' source.
    with refereed_moves():
        yield


def rich_with_candidates(corpus, q, min_len=3):
    """(word, flexed-palindrome) pairs from a small corpus, via the oracle."""
    for s in corpus:
        if len(s) < min_len:
            continue
        flex = oracles.flexed(s)
        for r in flex:
            yield s, r, flex


# -- flexed palindrome detection ---------------------------------------------


def test_flexed_palindromes_worked_example():
    recs = [(f.palindrome.chars, f.position, f.replacement.chars)
            for f in flexed_palindromes(word(WF))]
    assert recs == [
        ("0", 3, "111"),
        ("010", 5, "11011"),
        ("00", 9, "101101"),
        ("001100", 13, "1011001101"),
    ]


def test_flexed_palindromes_of_unary_words_are_empty():
    for n in (1, 2, 5):
        assert flexed_palindromes(word("0" * n, 2)) == ()


def test_flexed_palindromes_of_second_rewrite_example():
    pals = {f.palindrome.chars for f in flexed_palindromes(word(W4))}
    assert "656" in pals
    assert max(len(p) for p in pals) == 3


def test_flexed_palindromes_require_richness():
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        flexed_palindromes(word(bad, 2))


def test_flexed_palindromes_match_oracle(rich2, rich3):
    for corpus, q in ((rich2, 2), (rich3, 3)):
        for s in corpus:
            got = [
                (f.palindrome.chars, (f.position, f.replacement.chars))
                for f in flexed_palindromes(word(s, q))
            ]
            # the oracle keys its first arisings in arising order
            assert got == list(oracles.flexed(s).items()), s


def test_flexed_palindromes_are_never_prefixes(rich2, rich3):
    for corpus, q in ((rich2, 2), (rich3, 3)):
        for s in corpus:
            for f in flexed_palindromes(word(s, q)):
                assert not s.startswith(f.palindrome.chars), s


def _index_view(idx, scan):
    """What the pipeline reads of an index and its flex scan, key order kept."""
    n = len(idx)
    return (
        list(scan.items()),
        idx.rich,
        idx.lpp_length(),
        scan.lpp,
        [idx.lps_length(k) for k in range(n + 1)],
        [idx.std_letter(k) for k in range(1, n + 1)],
    )


def _random_rich(idx, n, rng):
    """Grow the rich word held in ``idx`` by random rich letters to length n."""
    while len(idx) < n:
        idx.append(rng.choice(idx.rich_letters()))
    return idx.chars


def test_prefix_scan_and_popped_index_match_a_fresh_prefix():
    # The eertree is online: popping an index back to the common prefix of
    # two words and appending the rest answers like a fresh index of the
    # second word, and the first word's flexed-palindrome scan cut at that
    # prefix, extended beyond it, is the second word's scan; so is its
    # longest palindromic prefix. Elimination moves one index from word to
    # word on the strength of this; the scan passed in stays the first word's.
    for q, max_len in ((2, 12), (3, 8)):
        # Every word, rich or not, cut back to every prefix length.
        fresh = {}
        for n in range(max_len + 1):
            for s in oracles.all_words(q, n):
                whole = PalIndex.of_word(word(s, q))
                scan = reference_scan(whole, s)
                before = list(scan.items())
                fresh[s] = _index_view(whole, scan)
                for k in range(n - 1, -1, -1):
                    idx = whole.copy()
                    cut = _move(idx, scan, s, s[:k])
                    assert _index_view(idx, cut) == fresh[s[:k]], (s, k)
                assert list(scan.items()) == before, s
    for q, max_len in ((2, 7), (3, 5)):
        words = [s for n in range(max_len + 1) for s in oracles.all_words(q, n)]
        fresh = {}
        for s in words:
            idx = PalIndex.of_word(word(s, q))
            fresh[s] = _index_view(idx, reference_scan(idx, s))
        # Moving to b and back covers the ordered pairs (a, b) and (b, a).
        for i, a in enumerate(words):
            idx = PalIndex.of_word(word(a, q))
            scan = reference_scan(idx, a)
            for b in words[i:]:
                moved = _move(idx, scan, a, b)
                assert _index_view(idx, moved) == fresh[b], (a, b)
                assert list(scan.items()) == fresh[a][0], (a, b)
                back = _move(idx, moved, b, a)
                assert _index_view(idx, back) == fresh[a], (b, a)
                assert list(moved.items()) == fresh[b][0], (b, a)
    # Long rich words sharing a prefix of random length.
    rng = random.Random(11)
    for _ in range(60):
        q = rng.randint(2, 4)
        grow = PalIndex(Alphabet(q))
        a = _random_rich(grow, rng.randint(50, 600), rng)
        keep = rng.randint(0, len(a))
        while len(grow) > keep:
            grow.pop()
        b = _random_rich(grow, rng.randint(keep, 600), rng)
        idx = PalIndex.of_word(word(a, q))
        scan = reference_scan(idx, a)
        before = list(scan.items())
        moved = _move(idx, scan, a, b)
        new = PalIndex.of_word(word(b, q))
        assert _index_view(idx, moved) == _index_view(new, reference_scan(new, b)), (a, b)
        assert list(scan.items()) == before, (a, b)


def _forced_runs_checked(s, q, targets):
    """Check ``_parse_triple``'s split of the rich word ``s`` around each
    target of length >= 3 against the walk that compares each letter after
    the target's last occurrence with the standard one; returns the forced
    runs, one per target checked."""
    w = word(s, q)
    scan = _analysis(w)[1]
    idx = PalIndex.of_word(word(s, q))
    runs = []
    for t in targets:
        if len(t) < 3:
            continue
        vlen = s.rfind(t) + len(t)
        k = vlen
        while k < len(s) and s[k] == idx.std_letter(k):
            k += 1
        got = _parse_triple(w, word(t, q), scan)
        assert got.span.chars + got.forced.chars + got.tail.chars == s, (s, t)
        assert (got.span.chars, got.forced.chars) == (s[:vlen], s[vlen:k]), (s, t)
        runs.append(got.forced.chars)
    return runs


def test_forced_run_read_off_the_scan_matches_the_standard_walk():
    # The forced run ends one letter before the first flexed step past the
    # target's last occurrence, read off the scan: in a rich word every
    # flexed step is a first arising, so the scan lists them all. Every
    # flexed target, maximal or not, of every small rich word.
    runs = []
    for q, top in ((2, 14), (3, 9)):
        for s in oracles.rich_words(q, top):
            runs += _forced_runs_checked(s, q, _analysis(word(s, q))[1])
    assert len(runs) > 20_000
    assert sum(map(bool, runs)) > 5_000


def test_pipeline_moves_go_through_the_referee():
    # The referee replaces the one mover that reduction and eliminate call;
    # a move that bypassed it would go unchecked in every other test here.
    with refereed_moves() as moved:
        reduced_word(word(W2), word("999"))
        eliminate(word("000000001011", 2), word("00", 2), word("11", 2))
    # reduced_word's rewrite; then eliminate's first trim and its one
    # rewrite, whose result is its own window
    assert moved == ["1239932239949", "001011", "0011"]


def test_flex_record_serialization():
    rec = flexed_palindromes(word(WF))[-1].to_record()
    assert rec == {"palindrome": "001100", "position": 13, "replacement": "1011001101"}


# -- standard replacement -----------------------------------------------------


def test_standard_replacement_examples():
    assert standard_replacement(word(WF), word("001100")).chars == "1011001101"
    assert standard_replacement(word("123999"), word("999")).chars == "3993"


def test_standard_replacement_rejects_non_flexed():
    with pytest.raises(NotAFlexedPalindrome):
        standard_replacement(word("010", 2), word("010", 2))
    with pytest.raises(NotRich):
        standard_replacement(
            word(next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s)), 2),
            word("0", 2),
        )


def test_standard_replacement_matches_oracle_and_is_longer(rich3):
    for s, r, flex in rich_with_candidates(rich3, 3, min_len=2):
        got = standard_replacement(word(s, 3), word(r, 3)).chars
        assert got == oracles.std_pal_rep(s, r), (s, r)
        assert len(got) > len(r), (s, r)


# -- reducibility conditions ---------------------------------------------------


def test_reducibility_condition_1_requires_rich_inputs():
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    out = check_reducible(word(bad, 2), word("010", 2))
    assert isinstance(out, ReductionRejection) and out.condition == 1
    out = check_reducible(word("01001100", 2), word(bad, 2))
    assert isinstance(out, ReductionRejection) and out.condition == 1
    for op in (parse, reduced_word):
        with pytest.raises(NotReducible) as info:
            op(word("01001100", 2), word(bad, 2))
        assert info.value.rejection.condition == 1


def test_reducibility_condition_2_requires_length_three():
    out = check_reducible(word(WF), word("0"))
    assert isinstance(out, ReductionRejection) and out.condition == 2
    out = check_reducible(word(WF), word("00"))
    assert isinstance(out, ReductionRejection) and out.condition == 2


def test_reducibility_condition_3_requires_a_flexed_palindrome():
    out = check_reducible(word("010", 2), word("010", 2))
    assert isinstance(out, ReductionRejection) and out.condition == 3
    # prefixes can never be flexed palindromes
    out = check_reducible(word(W1), word("123"))
    assert isinstance(out, ReductionRejection) and out.condition == 3


def test_reducibility_condition_4_rejects_targets_inside_the_palindromic_prefix():
    out = check_reducible(word("01110", 2), word("111", 2))
    assert isinstance(out, ReductionRejection) and out.condition == 4


def test_reducibility_condition_5_requires_maximal_length():
    out = check_reducible(word(W1), word("999"))
    assert isinstance(out, ReductionRejection) and out.condition == 5
    assert str(out) == "condition 5: a longer flexed palindrome exists (length 4)"
    # the longer one: the final step of the word births a length-4 palindrome
    recs = {f.palindrome.chars: f.position for f in flexed_palindromes(word(W1))}
    assert recs["3993"] == 33


def test_reducibility_acceptances():
    for s, r in ((W2, "999"), (W3, "656"), (W3, "545"), (W4, "656")):
        out = check_reducible(word(s), word(r))
        assert isinstance(out, ReduciblePair), (s, r)
        assert out.maximal
        assert out.word.chars == s and out.target.chars == r


def test_check_reducible_agrees_with_first_principles(rich2):
    # Re-derive the accept/reject decision for every (word, palindrome) choice.
    for s in rich2:
        if not 4 <= len(s) <= 9:
            continue
        flex = oracles.flexed(s)
        longest = max((len(p) for p in flex), default=0)
        for r in sorted(oracles.pal_set(s) - {""}):
            out = check_reducible(word(s, 2), word(r, 2))
            if len(r) <= 2:
                expect = 2
            elif r not in flex:
                expect = 3
            elif r in oracles.lpp(s):
                expect = 4
            elif len(r) < longest:
                expect = 5
            else:
                expect = None
            if expect is None:
                assert isinstance(out, ReduciblePair), (s, r)
            else:
                assert isinstance(out, ReductionRejection) and out.condition == expect, (
                    s, r, out)


# -- parse ----------------------------------------------------------------------


def test_parse_worked_examples():
    t = parse(word(W1), word("999"))
    assert (t.span.chars, t.forced.chars, t.tail.chars) == (
        "1239993223999324423999", "322", "55223993")
    t = parse(word(W2), word("999"))
    assert (t.span.chars, t.forced.chars, t.tail.chars) == (
        "1239995999", "32", "239949")
    t = parse(word(W3), word("656"))
    assert (t.span.chars, t.forced.chars, t.tail.chars) == (
        "12145656547745656545656", "547", "874")
    t = parse(word(W4), word("656"))
    assert (t.span.chars, t.forced.chars, t.tail.chars) == ("12145656", "54", "7874")
    assert t.to_record() == {"span": "12145656", "forced": "54", "tail": "7874"}


def test_parse_raises_structured_rejections():
    with pytest.raises(NotReducible) as info:
        parse(word("010", 2), word("010", 2))
    assert info.value.rejection.condition == 3
    # maximality is not required for the split
    assert parse(word(W1), word("999")).span.chars.endswith("999")


def test_parse_satisfies_the_defining_clauses(rich2, rich3):
    for corpus, q in ((rich2, 2), (rich3, 3)):
        for s, r, flex in rich_with_candidates(corpus, q):
            if len(r) <= 2 or r in oracles.lpp(s):
                continue
            t = parse(word(s, q), word(r, q))
            v, z, tail = t.span.chars, t.forced.chars, t.tail.chars
            assert v + z + tail == s, (s, r)
            assert v.endswith(r), (s, r)
            assert oracles.occ(v, r) == oracles.occ(s, r), (s, r)
            candidates = oracles.parse_candidates(s, r)
            assert candidates == [(v, z, tail)], (s, r)


# -- the rewrite ------------------------------------------------------------------


def test_rewrite_return_case_example():
    trace = reduced_prefix(word(W1), word("999"))
    assert trace.case is ReductionCase.RETURN
    assert not trace.pair.maximal
    assert trace.head.chars == "1239993"
    assert trace.complete_return.chars == "9993223999"
    assert trace.lead.chars == "123"
    assert trace.replacement is None and trace.closure_pick is None
    assert trace.reduced_prefix.chars == "123999322"
    assert trace.result.chars == "12399932255223993"
    # ltrim(target)·forced is a suffix of the reduced prefix
    assert trace.reduced_prefix.chars.endswith("99" + "322")


def test_rewrite_closure_case_example():
    trace = reduced_prefix(word(W2), word("999"))
    assert trace.case is ReductionCase.CLOSURE
    assert trace.pair.maximal
    assert trace.head.chars == "1"
    assert trace.replacement.chars == "3993"
    assert trace.closure_pick.chars == "1239932"
    assert trace.complete_return is None and trace.lead is None
    assert trace.reduced_prefix.chars == "1239932"
    assert trace.result.chars == "1239932239949"
    assert trace.reduced_prefix.chars.endswith("99" + "32")


def test_rewrite_chained_examples():
    res3, trace3 = reduced_word(word(W3), word("656"))
    assert res3.chars == W4
    assert trace3.case is ReductionCase.RETURN
    assert trace3.reduced_prefix.chars == "12145656547"
    res4, trace4 = reduced_word(word(W4), word("656"))
    assert res4.chars == "121456547874"
    assert trace4.case is ReductionCase.CLOSURE
    assert trace4.replacement.chars == "45654"
    assert occ(res4, word("656")) < occ(word(W4), word("656"))


def test_rewrite_trace_serialization():
    _, trace = reduced_word(word(W4), word("656"))
    rec = trace.to_record()
    assert rec["word"] == W4
    assert rec["target"] == "656"
    assert rec["case"] == "closure"
    assert rec["maximal"] is True
    assert rec["parse"] == {"span": "12145656", "forced": "54", "tail": "7874"}
    assert rec["closure_pick"] == "12145654"
    assert rec["result"] == "121456547874"


def test_rewrite_rejects_conditions_one_to_four_only():
    with pytest.raises(NotReducible):
        reduced_word(word("01110", 2), word("111", 2))
    with pytest.raises(NotReducible):
        reduced_word(word(WF), word("00"))
    # condition 5 failures still rewrite, flagged non-maximal
    res, trace = reduced_word(word(W1), word("999"))
    assert not trace.pair.maximal
    assert res.chars == "12399932255223993"
    assert is_rich(res)
    # A non-maximal rewrite whose result gains a flexed palindrome is
    # reported by the guarantee checks, not returned.
    assert not set(oracles.flexed("001101101")) <= set(oracles.flexed("0011101101"))
    with pytest.raises(InternalInconsistency, match="new flexed palindromes"):
        reduced_word(word("0011101101", 2), word("111", 2))


def test_non_maximal_rewrites_keep_their_guarantees_or_raise_a_domain_error():
    # Every pair that fails condition 5 alone, over binary <= 14 and ternary
    # <= 9: the rewrite returns a word the oracle finds meets all five
    # guarantees, or raises NonMaximalRewrite, a DomainError.
    pairs, raised = {2: 0, 3: 0}, {2: 0, 3: 0}
    for q, max_len in ((2, 14), (3, 9)):
        for s in oracles.rich_words(q, max_len):
            w = word(s, q)
            flex = None
            for rec in flexed_palindromes(w):
                outcome = check_reducible(w, rec.palindrome)
                if not (isinstance(outcome, ReductionRejection) and outcome.condition == 5):
                    continue
                pairs[q] += 1
                try:
                    out = reduced_word(w, rec.palindrome)[0].chars
                except NonMaximalRewrite as exc:
                    assert isinstance(exc, DomainError)
                    raised[q] += 1
                    continue
                r = rec.palindrome.chars
                flex = flex or oracles.flexed(s)
                assert oracles.is_rich(out), (s, r)
                assert oracles.flexed(out).keys() <= flex.keys(), (s, r)
                assert oracles.occ(out, r) < oracles.occ(s, r), (s, r)
                k = len(r) - 1
                assert out[:k] == s[:k] and out[-k:] == s[-k:], (s, r)
    assert pairs == {2: 38782, 3: 3420}
    assert raised == {2: 534, 3: 0}


def test_reduced_prefix_answers_as_reduced_word():
    # Every (rich word, flexed palindrome longer than 2) pair over binary
    # <= 14 and ternary <= 9: reduced_prefix gives reduced_word's trace, or
    # raises what it raises. The non-maximal pairs whose rewrite loses a
    # guarantee raise NonMaximalRewrite from both.
    pairs, raised = {2: 0, 3: 0}, {2: 0, 3: 0}
    for q, max_len in ((2, 14), (3, 9)):
        for s in oracles.rich_words(q, max_len):
            for r in oracles.flexed(s):
                if len(r) <= 2:
                    continue
                pairs[q] += 1
                got = _answer(lambda w: reduced_prefix(w, word(r, q)), word(s, q))
                want = _answer(lambda w: reduced_word(w, word(r, q))[1], word(s, q))
                assert got == want, (s, r)
                raised[q] += isinstance(got, tuple) and got[0] is NonMaximalRewrite
    assert sum(pairs.values()) == 91966
    assert raised == {2: 534, 3: 0}


def test_a_lost_guarantee_is_a_domain_error_only_on_a_non_maximal_pair(monkeypatch):
    # With a flexed palindrome slipped into every result's scan, the check
    # "no new flexed palindromes" fails on every rewrite: a maximal pair
    # reports a broken invariant, a non-maximal one bad input.
    import richwords.reduction as reduction

    move = reduction._move

    def tampered(idx, scan, s, chars):
        # placed past the result's end, so the closure-case census, which
        # cuts the scan to the reduced prefix, does not see it
        res_scan = move(idx, scan, s, chars)
        res_scan["slipped in"] = (len(chars) + 1, "")
        return res_scan

    monkeypatch.setattr(reduction, "_move", tampered)
    assert check_reducible(word(W1), word("3993")).maximal
    with pytest.raises(InternalInconsistency, match="new flexed palindromes") as caught:
        reduced_word(word(W1), word("3993"))
    assert type(caught.value) is InternalInconsistency
    with pytest.raises(NonMaximalRewrite, match="new flexed palindromes"):
        reduced_word(word(W1), word("999"))


def all_accepted_pairs(corpus, q, require_maximal):
    for s, r, flex in rich_with_candidates(corpus, q, min_len=4):
        if len(r) <= 2 or r in oracles.lpp(s):
            continue
        if require_maximal and len(r) < max(len(p) for p in flex):
            continue
        yield s, r, flex


def test_rewrite_guarantees_hold_on_the_small_corpus(rich2, rich3):
    # The acceptance suite sweeps far deeper; this pins the properties at
    # unit-test cost, against the oracle only.
    cases = 0
    by_case = {"return": 0, "closure": 0}
    for corpus, q in ((rich2, 2), (rich3, 3)):
        for s, r, flex in all_accepted_pairs(corpus, q, require_maximal=True):
            res, trace = reduced_word(word(s, q), word(r, q))
            out = res.chars
            cases += 1
            by_case[trace.case.value] += 1
            assert oracles.is_rich(out), (s, r)
            assert set(oracles.flexed(out)) <= set(flex), (s, r)
            assert oracles.occ(out, r) < oracles.occ(s, r), (s, r)
            k = len(r) - 1
            assert out[:k] == s[:k], (s, r)
            assert out[-k:] == s[-k:], (s, r)
    # Both cases appear in the worked examples above; at these corpus sizes
    # every accepted maximal pair takes the closure branch (the return branch
    # needs the target to recur before its flexed arising, which wants longer
    # words — the acceptance sweep covers both at depth).
    assert cases > 200
    assert by_case["closure"] > 0


@st.composite
def long_rich_words(draw):
    """A random rich word of 50-2,000 letters over 2 <= q <= 5 letters (a
    unary word has no flexed palindrome): (word, q)."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(50, 2000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _random_rich(PalIndex(Alphabet(q)), n, rng), q


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
    33637749322387541685870392499531346732885125710213084716014560282887180154448288588048234202670396830804672170758680
)
@given(long_rich_words())
def test_rewrite_guarantees_hold_on_long_random_words(case):
    # Beyond the swept lengths: every target check_reducible accepts (only a
    # flexed palindrome can pass condition 3) is rewritten, and the result is
    # refereed by the oracle alone.
    s, q = case
    flex = oracles.flexed(s)
    # the forced run of every flexed target, maximal or not
    _forced_runs_checked(s, q, flex)
    for r in flex:
        w, target = word(s, q), word(r, q)
        if not isinstance(check_reducible(w, target), ReduciblePair):
            continue
        out = reduced_word(w, target)[0].chars
        assert oracles.is_rich(out), (s, r)
        assert set(oracles.flexed(out)) <= set(flex), (s, r)
        assert oracles.occ(out, r) < oracles.occ(s, r), (s, r)
        k = len(r) - 1
        assert out[:k] == s[:k], (s, r)
        assert out[-k:] == s[-k:], (s, r)


def test_rewrite_palindrome_separation_property(rich3):
    # Palindromic factors of the rewritten prefix that avoid the standard
    # replacement all live in the shared prefix; the replacement itself is
    # not a palindromic factor of the original.
    for s, r, flex in all_accepted_pairs(rich3, 3, require_maximal=True):
        trace = reduced_prefix(word(s, 3), word(r, 3))
        u = trace.reduced_prefix.chars
        rep = oracles.std_pal_rep(s, r)
        assert rep not in oracles.pal_set(s), (s, r)
        shared = ""
        for a, b in zip(u, s):
            if a != b:
                break
            shared += a
        avoid = {p for p in oracles.pal_set(u) if rep not in p}
        assert avoid <= oracles.pal_set(shared), (s, r)


def test_rewrite_closure_case_flex_census(rich2, rich3):
    # The pick never invents a flexed palindrome, and keeps them all when it
    # runs through the whole probe.
    equal = shrunk = 0
    for corpus, q in ((rich2, 2), (rich3, 3)):
        for s, r, flex in all_accepted_pairs(corpus, q, require_maximal=True):
            trace = reduced_prefix(word(s, q), word(r, q))
            if trace.case is not ReductionCase.CLOSURE:
                continue
            probe = trace.head.chars + trace.pair.parse.forced.chars[::-1] + r[:-1]
            pick = trace.reduced_prefix.chars
            probe_flex = set(oracles.flexed(probe))
            pick_flex = set(oracles.flexed(pick))
            assert pick_flex <= probe_flex, (s, r)
            if len(pick) >= len(probe):
                assert pick_flex == probe_flex, (s, r)
                equal += 1
            else:
                shrunk += 1
    assert equal > 0 and shrunk > 0


def test_flexed_detection_from_unioccurrent_suffix(rich2):
    # If some prefix of the word ends y p x (p a palindrome that never starts
    # the word, x ≠ y), and y p y appears in the word but only beyond that
    # prefix, then y p y is a flexed palindrome of the word.
    checked = 0
    for s in rich2:
        if len(s) < 4:
            continue
        flex = {f.palindrome.chars for f in flexed_palindromes(word(s, 2))}
        for k in range(3, len(s) + 1):
            v = s[:k]
            x = v[-1]
            for plen in range(0, k - 2):
                p = v[k - 1 - plen : k - 1]
                y = v[k - 2 - plen]
                ypy = y + p + y
                if (
                    oracles.is_pal(p)
                    and x != y
                    and not s.startswith(p)
                    and ypy not in v
                    and ypy in s
                ):
                    checked += 1
                    assert ypy in flex, (s, v, y, p, x)
    assert checked > 100


# -- one analysis per word ------------------------------------------------------


def _answer(call, w):
    """What ``call(w)`` returns, or the type and message of what it raises."""
    try:
        return call(w)
    except (DomainError, InternalInconsistency) as exc:
        return type(exc), str(exc)


def _pipeline_calls(s, q):
    """The benchmark corpus sweep's calls on the word ``s``, plus the other
    readers of a word's analysis, each a function of the word alone."""
    W = lambda chars: word(chars, q)
    calls = [is_rich, flexed_palindromes, rich_extensions, pal_complexity_profile]
    calls.append(lambda w: maximal_reducible(w, 1))
    calls.append(lambda w: std_ext(w, 3))
    for r in oracles.flexed(s):
        if len(r) > 2:
            calls.append(lambda w, r=r: check_reducible(w, W(r)))
            calls.append(lambda w, r=r: reduced_word(w, W(r)))
            calls.append(lambda w, r=r: reduced_prefix(w, W(r)))
        calls.append(lambda w, r=r: standard_replacement(w, W(r)))
    if len(s) >= 2:
        u = s
        for _ in range(3):
            u = oracles.std_ext1(u)
        calls.append(lambda w, u=u: is_std_ext(W(u), w))
        calls.append(lambda w, u=u + s: max_std_ext(W(u), w))

    def trimmed(a, b):
        def call(w):
            win = shortest_marked_factor(w, W(a), W(b))
            t = win.chars
            a2 = a if t.startswith(a) else a[::-1]
            b2 = b if t.endswith(b) else b[::-1]
            return win, eliminate(win, W(a2), W(b2))
        return call

    top = min(2, len(s))
    calls += [trimmed(s[:i], s[-j:]) for i in range(1, top + 1) for j in range(1, top + 1)]
    return calls


def test_analysed_words_answer_as_fresh_ones():
    # Each call on a word that earlier calls analysed gives what it gives on
    # a fresh word, whichever call came first: none edits what a word keeps,
    # and what it keeps is whole, the index and scan of a fresh build.
    checked = 0
    for q, top in ((2, 12), (3, 8)):
        for s in oracles.rich_words(q, top):
            calls = [(call, _answer(call, word(s, q))) for call in _pipeline_calls(s, q)]
            fresh = PalIndex.of_word(word(s, q))
            whole = _fields(fresh), list(reference_scan(fresh, s).items())
            for order in (calls, calls[::-1]):
                w = word(s, q)
                for call, want in order:
                    assert _answer(call, w) == want, s
                    checked += 1
                idx, scan = w._pal
                assert (_fields(idx), list(scan.items())) == whole, s
    assert checked > 300_000

