"""Rich-word enumeration and the budgeted common-superword search."""

import pytest

import oracles
from richwords import (
    AlphabetMismatch,
    EnumConfig,
    NotRich,
    PreconditionViolation,
    SearchBudget,
    SearchStatus,
    enumerate_rich,
    find_common_superword,
    is_rich,
    pal_complexity_profile,
    word,
)

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


def test_enum_config_validation():
    with pytest.raises(PreconditionViolation):
        EnumConfig(0, 5)
    with pytest.raises(PreconditionViolation):
        EnumConfig(2, -1)
    with pytest.raises(PreconditionViolation):
        list(enumerate_rich(EnumConfig(2, 2), workers=0))


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
    assert v.explored == 11


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


def test_search_input_validation(rich2):
    with pytest.raises(AlphabetMismatch):
        find_common_superword(word("00"), word("11"))
    bad = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))
    with pytest.raises(NotRich):
        find_common_superword(word(bad, 2), word("0", 2))
    with pytest.raises(PreconditionViolation):
        SearchBudget(-1, 10)
    with pytest.raises(PreconditionViolation):
        SearchBudget(4, 0)


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
