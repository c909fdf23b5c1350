"""The package's public surface: the union of its modules' ``__all__``."""

import importlib
import os
import re
import subprocess
import sys

import pytest

import richwords
from richwords import (
    EnumConfig, LengthViolation, PreconditionViolation, SearchBudget, digit_count,
    ensure_printable, enumerate_rich, flex_count_bound, maximal_reducible,
    pal_complexity_bound, std_ext, superword_length_bound, word,
)

MODULES = [
    "words", "palindromes", "extensions", "reduction",
    "eliminate", "bounds", "search", "errors",
]

PUBLIC = [
    "Alphabet", "AlphabetMismatch", "BoundReport", "DEFAULT_DIGIT_CAP", "DEFAULT_MAX_NODES",
    "DomainError", "EliminationStep", "EliminationTrace", "EmptyPattern",
    "EnumConfig", "FlexRecord", "InternalInconsistency", "LengthViolation",
    "NonMaximalRewrite", "NotAFactor", "NotAFlexedPalindrome", "NotAPrefix", "NotReducible",
    "NotRich", "PalIndex", "ParseTriple", "PreconditionViolation",
    "ReduciblePair", "ReductionCase", "ReductionRejection", "ReductionTrace",
    "ResourceLimit", "SearchBudget", "SearchStatus", "SearchVerdict", "Word",
    "__version__", "check_reducible", "complete_returns", "digit_count",
    "eliminate", "ensure_printable", "enumerate_rich", "factors",
    "find_common_superword", "flex_count_bound", "flexed_palindromes",
    "format_word_file", "infer_alphabet_size", "is_factor", "is_rich",
    "is_std_ext", "iter_factors", "lcp", "lcs", "lpp", "lppp", "lpps", "lps",
    "ltrim", "max_std_ext", "maximal_reducible", "occ", "pal_closure",
    "pal_complexity_bound", "pal_complexity_profile", "pal_factors",
    "pal_factors_avoiding", "parse", "parse_word_file", "reduced_prefix",
    "reduced_word", "require_rich", "reverse", "reverse_unioccurrent",
    "rich_extensions", "rtrim", "shortest_marked_factor",
    "standard_replacement", "std_ext", "superword_length_bound", "trim", "word",
]


def test_public_names_are_pinned():
    assert sorted(richwords.__all__) == PUBLIC


def test_each_name_is_its_defining_modules_object():
    seen = {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"richwords.{name}")
        for public in module.__all__:
            assert getattr(richwords, public) is getattr(module, public), public
            seen.add(public)
    assert seen == set(richwords.__all__)


def test_eliminate_names_the_function():
    module = importlib.import_module("richwords.eliminate")
    assert richwords.eliminate is module.eliminate


def test_import_leaves_multiprocessing_unloaded():
    # only enumerate_rich(..., workers > 1) needs it
    src = os.path.dirname(os.path.dirname(richwords.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, richwords; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_word_memo_and_index_lists_are_read_in_palindromes_alone():
    # A word's kept analysis and the eertree's lists are one module's
    # business; words.py only declares the slot.
    private = re.compile(r"\._(pal|len|slink|lps_node|parent|trans)\b")
    package = os.path.dirname(richwords.__file__)
    readers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("palindromes.py", "words.py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                readers += [(name, m.group()) for m in private.finditer(f.read())]
    assert readers == []


def _budget_length(v):
    return SearchBudget(max_length=v)


# Every count argument: (call, label, lowest value, error class). A count is
# an int at least its lowest value, a bool counting as its integer.
PV = PreconditionViolation
COUNTS = [
    (digit_count, "n", 1, PV),
    (ensure_printable, "digits", 0, PV),
    (lambda v: pal_complexity_bound(v, 2), "length", 1, PV),
    (lambda v: pal_complexity_bound(2, v), "alphabet size", 1, PV),
    (lambda v: flex_count_bound(v, 2), "marker length", 1, PV),
    (lambda v: flex_count_bound(2, v), "alphabet size", 1, PV),
    (lambda v: superword_length_bound(v, 2), "marker length", 1, PV),
    (lambda v: superword_length_bound(1, v), "alphabet size", 1, PV),
    (lambda v: superword_length_bound(1, 2, digit_cap=v), "digit cap", 1, PV),
    (lambda v: EnumConfig(v, 3), "alphabet size", 1, PV),
    (lambda v: EnumConfig(2, v), "max length", 0, PV),
    (_budget_length, "max length", 0, PV),
    (lambda v: SearchBudget(max_nodes=v), "max nodes", 1, PV),
    (lambda v: next(enumerate_rich(EnumConfig(2, 3), workers=v)), "workers", 1, PV),
    (lambda v: maximal_reducible(word("0110", 2), v), "floor", 1, PV),
    (lambda v: std_ext(word("01", 2), v), "step count", 0, LengthViolation),
]


@pytest.mark.parametrize(
    "call, label, lo, error", COUNTS, ids=[f"{i}-{row[1]}" for i, row in enumerate(COUNTS)]
)
def test_every_count_argument_is_checked_alike(call, label, lo, error):
    bound = "a positive integer" if lo == 1 else "an integer >= 0"
    # SearchBudget(max_length=None) is accepted: it means |w1| + |w2|
    rejected = (lo - 1, 1.5, 2.0, "2") + (() if call is _budget_length else (None,))
    for value in rejected:
        with pytest.raises(error) as caught:
            call(value)
        assert type(caught.value) is error, value
        assert str(caught.value) == f"{label} must be {bound}, got {value!r}"
    for value in (lo, True):
        call(value)
