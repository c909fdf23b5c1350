"""Rich-word enumeration and the budgeted common-superword search."""

import importlib
import multiprocessing
import os

import pytest

import oracles
from richwords import (
    AlphabetMismatch,
    DomainError,
    EnumConfig,
    InternalInconsistency,
    NotRich,
    PalIndex,
    PreconditionViolation,
    SearchBudget,
    SearchStatus,
    SearchVerdict,
    enumerate_rich,
    find_common_superword,
    is_rich,
    pal_complexity_profile,
    word,
)

search = importlib.import_module("richwords.search")

WF = "110101100110011"


def _counts(config, workers=1):
    counts: dict[int, int] = {}
    for w in enumerate_rich(config, workers=workers):
        counts[len(w.chars)] = counts.get(len(w.chars), 0) + 1
    return [counts.get(i, 0) for i in range(config.max_length + 1)]


# -- enumeration ---------------------------------------------------------------


def test_enumeration_matches_naive_filter(rich2, rich3):
    got2 = {w.chars for w in enumerate_rich(EnumConfig(2, 9))}
    assert got2 == {s for s in rich2 if len(s) <= 9}
    got3 = {w.chars for w in enumerate_rich(EnumConfig(3, 6))}
    assert got3 == set(rich3)


def test_enumeration_counts():
    assert _counts(EnumConfig(2, 14)) == [
        1, 2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756, 3246, 5916, 10618,
    ]
    assert _counts(EnumConfig(3, 9)) == [
        1, 3, 9, 27, 75, 201, 513, 1269, 3033, 7047,
    ]
    assert _counts(EnumConfig(1, 5)) == [1, 1, 1, 1, 1, 1]


def test_enumeration_is_prefix_closed_preorder():
    seen = set()
    for w in enumerate_rich(EnumConfig(2, 8)):
        if w.chars:
            assert w.chars[:-1] in seen, w.chars
        seen.add(w.chars)
    assert "" in seen


def test_canonical_enumeration():
    assert _counts(EnumConfig(2, 10, canonical=True)) == [
        1, 1, 2, 4, 8, 16, 32, 64, 126, 244, 466,
    ]

    def canonical(s: str) -> bool:
        order = list(dict.fromkeys(s))
        return order == [oracles.letters(3)[i] for i in range(len(order))]

    full = {w.chars for w in enumerate_rich(EnumConfig(3, 5))}
    canon = {w.chars for w in enumerate_rich(EnumConfig(3, 5, canonical=True))}
    assert canon == {s for s in full if canonical(s)}


def test_canonical_binary_counts_are_half_of_full():
    full = _counts(EnumConfig(2, 10))
    canon = _counts(EnumConfig(2, 10, canonical=True))
    assert all(2 * c == f for c, f in zip(canon[1:], full[1:]))


def test_parallel_enumeration_same_set():
    seq = {w.chars for w in enumerate_rich(EnumConfig(2, 8))}
    par = {w.chars for w in enumerate_rich(EnumConfig(2, 8), workers=2)}
    assert seq == par


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_parallel_enumeration_to_the_split_depth_is_the_serial_stream(
    q, canonical, monkeypatch
):
    # every word up to 2 letters is above the split depth: no pool is started
    monkeypatch.setattr(multiprocessing, "Pool", lambda *a, **k: pytest.fail("pool started"))
    for n in range(3):
        config = EnumConfig(q, n, canonical)
        serial = [w.chars for w in enumerate_rich(config)]
        assert [w.chars for w in enumerate_rich(config, workers=2)] == serial


@pytest.mark.parametrize(
    "workers, cores, expected",
    [(500, 64, 4), (500, 3, 3), (2, 2, 2), (3, 64, 3), (500, None, 1)],
)
def test_pool_holds_at_most_one_process_per_subtree_and_core(
    workers, cores, expected, monkeypatch
):
    # an inline stand-in for the pool records its size and starts no process
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = EnumConfig(2, 5)  # 4 subtrees below the split depth 2
    words = sorted(w.chars for w in enumerate_rich(config, workers=workers))
    assert sizes == [expected]
    assert words == sorted(w.chars for w in enumerate_rich(config))


def test_non_integer_workers_are_refused_before_any_pool(monkeypatch):
    # A float once reached the pool and failed there with a TypeError; it is
    # refused before the stream yields its first word.
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda *a, **k: started.append(a))
    for workers in (1.5, 2.0, "2", None):
        with pytest.raises(PreconditionViolation, match="workers must be"):
            next(enumerate_rich(EnumConfig(2, 5), workers=workers))
    assert started == []


def test_enumerate_rich_checks_its_arguments_when_called():
    # no stream is returned, so no next() is needed to see the rejection
    for workers in (0, -1, 1.5):
        with pytest.raises(PreconditionViolation, match="^workers must be"):
            enumerate_rich(EnumConfig(2, 3), workers=workers)
    with pytest.raises(DomainError, match="alphabet"):
        enumerate_rich(EnumConfig(40, 3))


def test_enum_config_validation():
    with pytest.raises(PreconditionViolation):
        EnumConfig(0, 5)
    with pytest.raises(PreconditionViolation):
        EnumConfig(2, -1)
    with pytest.raises(PreconditionViolation):
        list(enumerate_rich(EnumConfig(2, 2), workers=0))
    for args in ((2, 2.5), (2.5, 3), (2, "3"), ("2", 3)):
        with pytest.raises(PreconditionViolation):
            EnumConfig(*args)


# -- common-superword search ------------------------------------------------------


def test_search_finds_short_witness():
    v = find_common_superword(word("00", 2), word("11", 2))
    assert v.status is SearchStatus.WITNESS
    assert v.witness.chars == "0011"
    assert v.explored == 28


def test_search_self_pair():
    w = word("0101", 2)
    v = find_common_superword(w, w)
    assert v.status is SearchStatus.WITNESS
    assert v.witness.chars == "0101"
    assert v.explored == 12


def test_search_budget_exhaustion_is_honest():
    v = find_common_superword(
        word("00", 2), word("11", 2), budget=SearchBudget(2, 5)
    )
    assert v.status is SearchStatus.EXHAUSTED
    assert v.witness is None
    assert v.explored == 5
    assert v.to_record() == {
        "status": "exhausted-budget",
        "witness": None,
        "explored": 5,
        "budget": {"max_length": 2, "max_nodes": 5},
    }
    # Every deepening round ends under the node budget without a hit.
    v = find_common_superword(
        word("00", 2), word("11", 2), budget=SearchBudget(2, 100)
    )
    assert v.to_record() == {
        "status": "exhausted-budget",
        "witness": None,
        "explored": 6,
        "budget": {"max_length": 2, "max_nodes": 100},
    }


def test_search_empty_targets():
    v = find_common_superword(word("", 2), word("", 2))
    assert v.status is SearchStatus.WITNESS and v.witness.chars == ""
    v = find_common_superword(word("", 2), word("11", 2))
    assert v.status is SearchStatus.WITNESS
    assert "11" in v.witness.chars


def test_a_witness_that_is_not_rich_is_an_internal_error(monkeypatch):
    # only the targets pass: the hit 001, closed to 00100, does not, nor
    # does the empty pair's witness
    for a, b, witness in (("01", "100", "00100"), ("", "", "")):
        w1, w2 = word(a, 2), word(b, 2)
        monkeypatch.setattr(search, "is_rich", lambda w: w is w1 or w is w2)
        with pytest.raises(InternalInconsistency, match=f"witness '{witness}' is not rich"):
            find_common_superword(w1, w2)


def test_an_unclosed_witness_misses_a_required_factor(monkeypatch):
    # The hit 001 holds 100 only reversed; without the closure that orients
    # it, the check of both literal factors fails.
    monkeypatch.setattr(search, "pal_closure", lambda w: w)
    with pytest.raises(InternalInconsistency, match="witness '001' misses a required factor"):
        find_common_superword(word("01", 2), word("100", 2))


def test_search_witnesses_are_valid_on_pair_sweep(rich2):
    targets = [s for s in rich2 if 1 <= len(s) <= 4]
    budget = SearchBudget(10, 200_000)
    hits = misses = 0
    for a in targets:
        for b in targets:
            v = find_common_superword(word(a, 2), word(b, 2), budget=budget)
            if v.status is SearchStatus.WITNESS:
                hits += 1
                w = v.witness
                assert is_rich(w)
                assert a in w.chars and b in w.chars, (a, b, w.chars)
                assert v.explored <= budget.max_nodes
            else:
                misses += 1
    assert hits > 800
    # The sweep may legitimately leave some pairs undecided, never wrongly "no".
    assert hits + misses == len(targets) ** 2


def test_search_agrees_with_oracle_on_ternary_pairs(rich3):
    # Every ordered pair of nonempty ternary words of 1-3 letters (all rich),
    # within |a| + |b| letters: a witness exactly when some rich word that
    # long holds each target up to reversal, and then both literally.
    targets = [s for s in rich3 if 1 <= len(s) <= 3]
    assert len(targets) == 39
    witnesses = 0
    for a in targets:
        for b in targets:
            top = len(a) + len(b)
            exists = any(
                (a in s or a[::-1] in s) and (b in s or b[::-1] in s)
                for s in rich3 if len(s) <= top
            )
            v = find_common_superword(word(a, 3), word(b, 3), SearchBudget(top))
            assert (v.status is SearchStatus.WITNESS) == exists, (a, b)
            if exists:
                witnesses += 1
                w = v.witness
                assert is_rich(w) and a in w.chars and b in w.chars, (a, b, w.chars)
    assert witnesses == 1_395


def test_search_input_validation(rich2):
    with pytest.raises(AlphabetMismatch, match="^words over alphabets of size 1 and 2$"):
        find_common_superword(word("00"), word("11"))
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        find_common_superword(word(bad, 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        SearchBudget(-1, 10)
    with pytest.raises(PreconditionViolation):
        SearchBudget(4, 0)
    for args in ((2.5, 10), (4, 2.5), ("4", 10), (4, "10")):
        with pytest.raises(PreconditionViolation):
            SearchBudget(*args)


def test_search_budget_defaults_resolve_before_recording():
    a, b = word("00", 2), word("11", 2)
    assert SearchBudget() == SearchBudget(None, search.DEFAULT_MAX_NODES)
    assert search.DEFAULT_MAX_NODES == 1_000_000
    assert find_common_superword(a, b).budget == SearchBudget(4, 1_000_000)
    v = find_common_superword(a, b, SearchBudget(max_nodes=5))
    assert v.to_record()["budget"] == {"max_length": 4, "max_nodes": 5}
    v = find_common_superword(word("", 2), word("", 2), SearchBudget(max_nodes=5))
    assert v.budget == SearchBudget(0, 5)


# -- rounds counted instead of walked ------------------------------------------------


def _walked_search(w1, w2, budget=None):
    """The search with every deepening round walked: the reference for the
    rounds that are counted from the table."""
    if budget is None:
        budget = SearchBudget(len(w1.chars) + len(w2.chars), 1_000_000)
    p1, p2 = w1.chars, w2.chars
    r1, r2 = p1[::-1], p2[::-1]
    base = w1._wrap("")
    if p1 == "" and p2 == "":
        return SearchVerdict(SearchStatus.WITNESS, base, 0, budget)
    explored = 0
    for limit in range(max(len(p1), len(p2), 1), budget.max_length + 1):
        for chars in search._walk(PalIndex(w1.alphabet), limit):
            if explored >= budget.max_nodes:
                return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)
            explored += 1
            if (p1 in chars or r1 in chars) and (p2 in chars or r2 in chars):
                witness = search._witness(base._wrap(chars), p1, p2)
                return SearchVerdict(SearchStatus.WITNESS, witness, explored, budget)
    return SearchVerdict(SearchStatus.EXHAUSTED, None, explored, budget)


def _outcome(v):
    return v.status, None if v.witness is None else v.witness.chars, v.explored


def _rich_upto(corpus):
    """Number of nonempty rich words of length <= L, for L = 0 .. the
    corpus's longest."""
    top = max(map(len, corpus))
    return [sum(1 for s in corpus if 0 < len(s) <= n) for n in range(top + 1)]


def test_counted_rounds_match_walked_rounds_on_pair_sweeps(rich2, rich3):
    for q, corpus, top in ((2, rich2, 5), (3, rich3, 3)):
        targets = [s for s in corpus if 1 <= len(s) <= top]
        for a in targets:
            for b in targets:
                w1, w2 = word(a, q), word(b, q)
                got = _outcome(find_common_superword(w1, w2))
                assert got == _outcome(_walked_search(w1, w2)), (a, b)


@pytest.mark.parametrize("a, b, q", [
    ("00000", "11111", 2), ("0010", "1101", 2), ("000", "111", 3), ("0102", "2101", 3),
])
def test_counted_rounds_match_at_round_boundaries(a, b, q, rich2, rich3, monkeypatch):
    upto = _rich_upto(rich2 if q == 2 else rich3)
    first = max(len(a), len(b))
    # the shortest string holding both targets, each in either orientation
    short = min(
        len(x + y[k:])
        for u in (a, a[::-1]) for v in (b, b[::-1]) for x, y in ((u, v), (v, u))
        for k in range(len(y) + 1) if y in x + y[k:]
    )
    assert short > first  # the pair has counted rounds
    budgets = set()
    explored = 0
    for limit in range(first, short):
        explored += upto[limit]
        budgets |= {upto[limit] + d for d in (-1, 0, 1)}
        budgets |= {explored + d for d in (-1, 0, 1)}
    w1, w2 = word(a, q), word(b, q)
    for nodes in sorted(budgets):
        budget = SearchBudget(len(a) + len(b), nodes)
        want = _outcome(_walked_search(w1, w2, budget))
        assert _outcome(find_common_superword(w1, w2, budget)) == want, nodes
        monkeypatch.setattr(search, "_ROUND_COUNTS", {})  # the same from a cold table
        assert _outcome(find_common_superword(w1, w2, budget)) == want, nodes


def test_round_counts_match_oracle():
    for q, top in ((1, 8), (2, 10), (3, 6), (4, 5)):
        upto = _rich_upto(oracles.rich_words(q, top))
        counts = search._RoundCounts(q)
        for n in range(1, top + 1):
            assert counts.total(n, n, 10**9) == upto[n], (q, n)
        assert counts.total(1, top, 10**9) == sum(upto)


def test_capped_fill_walks_at_most_cap_nodes(monkeypatch):
    walk, walked = search._walk, []

    def counted(*args, **kwargs):
        for chars in walk(*args, **kwargs):
            walked.append(chars)
            yield chars

    monkeypatch.setattr(search, "_walk", counted)
    rounds = 62 + 126 + 254 + 506 + 994  # binary rounds 5..9
    for cap in (1, 2, 993, 994, 995, rounds - 1, rounds, rounds + 1):
        walked.clear()
        counts = search._RoundCounts(2)
        assert counts.total(5, 9, cap) == min(cap, rounds), cap
        assert len(walked) <= cap, cap
        walked.clear()
        assert counts.total(5, 9, cap) == min(cap, rounds), cap
        assert walked == [], cap  # answered from the table alone


def test_budget_spent_by_counted_rounds_builds_no_walker(monkeypatch):
    w1, w2 = word("202010000", 3), word("2010201101", 3)
    budget = SearchBudget(19, 20_000)
    want = find_common_superword(w1, w2, budget)  # fills the ternary table
    assert _outcome(want) == (SearchStatus.EXHAUSTED, None, 20_000)

    def refuse(*args, **kwargs):
        raise AssertionError("a walker was built")

    monkeypatch.setattr(search, "_walk", refuse)
    monkeypatch.setattr(search, "PalIndex", refuse)
    assert find_common_superword(w1, w2, budget) == want


# -- depth beyond the interpreter's recursion limit ---------------------------------


def test_enumeration_depth_is_not_recursion_bound():
    words = [w.chars for w in enumerate_rich(EnumConfig(1, 5000))]
    assert len(words) == 5001
    assert words[-1] == "0" * 5000


def test_search_depth_is_not_recursion_bound():
    v = find_common_superword(word("0" * 5000, 2), word("0" * 2500, 2))
    assert v.status is SearchStatus.WITNESS
    assert v.witness.chars == "0" * 5000
    assert v.explored == 5000


# -- palindromic complexity profile --------------------------------------------------


def test_profile_example():
    assert pal_complexity_profile(word(WF, 2)) == {
        1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 2, 7: 1, 8: 2, 10: 1,
    }


def test_profile_of_empty_word():
    assert pal_complexity_profile(word("", 2)) == {}


def test_profile_total_equals_length_exactly_for_rich_words(rich2):
    rich = set(rich2)
    for s in oracles.all_words(2, 7):
        total = sum(pal_complexity_profile(word(s, 2)).values())
        if s in rich:
            assert total == len(s), s
        else:
            assert total < len(s), s
