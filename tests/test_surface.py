"""The package's public surface: the union of its modules' ``__all__``."""

import importlib
import os
import re
import subprocess
import sys

import richwords

MODULES = [
    "words", "palindromes", "extensions", "reduction",
    "eliminate", "bounds", "search", "errors",
]

PUBLIC = [
    "Alphabet", "AlphabetMismatch", "BoundReport", "DEFAULT_DIGIT_CAP", "DEFAULT_MAX_NODES",
    "DomainError", "EliminationStep", "EliminationTrace", "EmptyPattern",
    "EnumConfig", "FlexRecord", "InternalInconsistency", "LengthViolation",
    "NotAFactor", "NotAFlexedPalindrome", "NotAPrefix", "NotReducible",
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
