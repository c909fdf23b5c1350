"""Finite words over small indexed alphabets.

A word is an immutable sequence of symbols drawn from an alphabet of size q
(at most 36). Symbol i displays as the character '0'+i for i <= 9 and
'a'+(i-10) above that, so words read and print as compact strings such as
"110101100110011". Internally a word stores exactly that display string,
which keeps factor tests, occurrence counting, and reversal on the fast
C-level string paths.

The module also holds ``_Record``, the serializer the result dataclasses
share.
"""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Iterator

from .errors import (
    AlphabetMismatch,
    DomainError,
    EmptyPattern,
    LengthViolation,
    PreconditionViolation,
)

__all__ = [
    "Alphabet",
    "Word",
    "word",
    "infer_alphabet_size",
    "reverse",
    "trim",
    "ltrim",
    "rtrim",
    "lcp",
    "lcs",
    "occ",
    "iter_factors",
    "factors",
    "is_factor",
    "parse_word_file",
    "format_word_file",
]

DISPLAY = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(DISPLAY)

_SYMBOL_OF = {ch: i for i, ch in enumerate(DISPLAY)}


class Alphabet:
    """An ordered alphabet of ``size`` symbols, displayed per ``DISPLAY``.

    A value: there is one instance per size, built when the module loads, and
    ``Alphabet(size)`` returns it. Its attributes cannot be assigned, and
    copies and pickles give back the shared instance, so alphabets compare
    by identity.
    """

    __slots__ = ("size", "letters")

    def __new__(cls, size: int) -> "Alphabet":
        alphabet = _ALPHABETS.get(size) if isinstance(size, int) else None
        if alphabet is None:
            raise DomainError(
                f"alphabet size must be an integer in 1..{MAX_ALPHABET}, got {size!r}"
            )
        return alphabet

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the table: the shared instance
        return Alphabet, (self.size,)

    def word(self, text: str) -> "Word":
        """Build a word from its display string, validating every letter."""
        return Word(text, self)

    def __repr__(self) -> str:
        return f"Alphabet({self.size})"


def _make_alphabet(size: int) -> Alphabet:
    alphabet = object.__new__(Alphabet)
    object.__setattr__(alphabet, "size", size)
    # ``letters`` is stored, not sliced from DISPLAY on each read
    object.__setattr__(alphabet, "letters", DISPLAY[:size])
    return alphabet


_ALPHABETS = {size: _make_alphabet(size) for size in range(1, MAX_ALPHABET + 1)}


def _not_in(letter: str, alphabet: Alphabet) -> DomainError:
    return DomainError(f"letter {letter!r} is not in the {alphabet.size}-letter alphabet")


class Word:
    """An immutable word; indexable like a string of display letters.

    Equality and hashing compare symbol content only, so equal words from
    different alphabet declarations collide in sets; operations that need a
    shared alphabet (lcp, lcs, concatenation, ``find_common_superword``)
    check it explicitly.

    A rich word can keep its analysis in ``_pal``: None, or the pair of its
    ``PalIndex`` and its flex scan, whose presence proves the word rich.
    ``palindromes`` alone reads and writes it: the calls that need a rich
    word and read its palindromic structure set it on first use and read it
    afterwards, while ``is_rich``, ``require_rich`` and the calls that
    accept any word read it but never set it. The kept index is read-only:
    a call that edits an index edits a copy, or a fresh build when the word
    has no analysis. The slot is a function of the letters alone; equality,
    hashing, records, copies and pickles ignore it.
    """

    __slots__ = ("chars", "alphabet", "_pal")

    def __init__(self, chars: str, alphabet: Alphabet):
        rest = chars.lstrip(alphabet.letters)
        if rest:
            raise _not_in(rest[0], alphabet)
        self.chars = chars
        self.alphabet = alphabet
        self._pal = None

    def _wrap(self, chars: str) -> "Word":
        w = Word.__new__(Word)
        w.chars = chars
        w.alphabet = self.alphabet
        w._pal = None
        return w

    def __reduce__(self):
        # copies and pickles rebuild from the letters, without the analysis
        return Word, (self.chars, self.alphabet)

    def __len__(self) -> int:
        return len(self.chars)

    def __getitem__(self, item) -> "Word":
        return self._wrap(self.chars[item])

    def __add__(self, other) -> "Word":
        if isinstance(other, Word):
            _check_same_alphabet(self, other)
            return self._wrap(self.chars + other.chars)
        if isinstance(other, str):
            return Word(self.chars + other, self.alphabet)
        return NotImplemented

    def __contains__(self, other) -> bool:
        return (other.chars if isinstance(other, Word) else other) in self.chars

    def __iter__(self) -> Iterator[str]:
        return iter(self.chars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and other.chars == self.chars

    def __hash__(self) -> int:
        return hash(self.chars)

    def __str__(self) -> str:
        return self.chars

    def __repr__(self) -> str:
        return f"Word({self.chars!r}, q={self.alphabet.size})"


class _Record:
    """Mixin for result dataclasses: ``to_record()`` is a JSON-ready dict of
    the fields in declaration order. A word becomes its letters, an enum its
    value, a tuple a list, and a nested result its own ``to_record()``."""

    def to_record(self) -> dict:
        return {f.name: _record_value(getattr(self, f.name)) for f in fields(self)}


def _record_value(value):
    if isinstance(value, Word):
        return value.chars
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_record_value(v) for v in value]
    if isinstance(value, _Record):
        return value.to_record()
    return value


def word(text: str, q: int | None = None) -> Word:
    """Convenience constructor; infers q = (max symbol index) + 1 when omitted."""
    if q is None:
        q = infer_alphabet_size(text)
    # the table read skips the constructor; a size it lacks goes there to be
    # accepted (a bool) or rejected
    alphabet = _ALPHABETS.get(q) if type(q) is int else None
    return Word(text, alphabet or Alphabet(q))


def infer_alphabet_size(*texts: str) -> int:
    """Smallest alphabet size covering every letter of the given display strings."""
    top = 0
    for text in texts:
        for ch in text:
            sym = _SYMBOL_OF.get(ch)
            if sym is None:
                raise DomainError(f"letter {ch!r} is not a valid display character")
            if sym >= top:
                top = sym + 1
    return max(top, 1)


def reverse(w: Word) -> Word:
    """The mirror image of ``w``."""
    return w._wrap(w.chars[::-1])


def trim(w: Word) -> Word:
    """Drop the first and last letter; requires |w| >= 2."""
    if len(w.chars) < 2:
        raise LengthViolation(f"trim needs length >= 2, got {len(w.chars)}")
    return w._wrap(w.chars[1:-1])


def ltrim(w: Word) -> Word:
    """Drop the first letter; requires |w| >= 1."""
    if not w.chars:
        raise LengthViolation("ltrim needs length >= 1")
    return w._wrap(w.chars[1:])


def rtrim(w: Word) -> Word:
    """Drop the last letter; requires |w| >= 1."""
    if not w.chars:
        raise LengthViolation("rtrim needs length >= 1")
    return w._wrap(w.chars[:-1])


def _check_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet.size != v.alphabet.size:
        raise AlphabetMismatch(
            f"words over alphabets of size {u.alphabet.size} and {v.alphabet.size}"
        )


def common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings.

    A bisection over slice compares, so the letters are matched at C speed.
    """
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    # a[:lo] == b[:lo] and a[:hi] != b[:hi]: the first mismatch is in lo..hi-1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def lcp(u: Word, v: Word) -> Word:
    """Longest common prefix of two words over the same alphabet."""
    _check_same_alphabet(u, v)
    return u._wrap(u.chars[: common_prefix_len(u.chars, v.chars)])


def lcs(u: Word, v: Word) -> Word:
    """Longest common suffix of two words over the same alphabet."""
    _check_same_alphabet(u, v)
    a = u.chars
    return u._wrap(a[len(a) - common_prefix_len(a[::-1], v.chars[::-1]) :])


def occ_starts(text: str, pattern: str) -> list[int]:
    """Ascending start positions of the (possibly overlapping) occurrences of
    ``pattern`` in ``text`` (both display strings)."""
    if not pattern:
        raise EmptyPattern("occurrence pattern must be nonempty")
    starts = []
    pos = text.find(pattern)
    while pos >= 0:
        starts.append(pos)
        pos = text.find(pattern, pos + 1)
    return starts


def occ_str(text: str, pattern: str) -> int:
    """Overlapping occurrence count of ``pattern`` in ``text`` (both display strings)."""
    return len(occ_starts(text, pattern))


def occ(u: Word, v: Word) -> int:
    """Number of (possibly overlapping) occurrences of ``v`` in ``u``."""
    return occ_str(u.chars, v.chars)


def iter_factors(w: Word) -> Iterator[Word]:
    """Stream every distinct factor of ``w`` (including the empty word), shortest first."""
    s = w.chars
    n = len(s)
    yield w._wrap("")
    seen: set[str] = set()
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            f = s[i : i + length]
            if f not in seen:
                seen.add(f)
                yield w._wrap(f)


def factors(w: Word) -> set[Word]:
    """The set of distinct factors of ``w``, including the empty word."""
    return set(iter_factors(w))


def is_factor(w: Word, v: Word) -> bool:
    """Whether ``v`` occurs in ``w`` (the empty word always does)."""
    return v.chars in w.chars


def parse_word_file(text: str) -> tuple[Alphabet, list[Word]]:
    """Read the one-word-per-line text format.

    An optional header line ``q=<n>`` declares the alphabet size; without it
    the size is inferred from the largest symbol used. Blank lines are
    skipped.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    declared: int | None = None
    if lines and lines[0].startswith("q="):
        try:
            declared = int(lines[0][2:])
        except ValueError:
            raise PreconditionViolation(f"bad alphabet header {lines[0]!r}") from None
        lines = lines[1:]
    q = declared if declared is not None else infer_alphabet_size(*lines)
    alphabet = _ALPHABETS.get(q) or Alphabet(q)
    return alphabet, [Word(line, alphabet) for line in lines]


def format_word_file(words: list[Word]) -> str:
    """Write words in the one-word-per-line text format, with a ``q=`` header."""
    q = max((w.alphabet.size for w in words), default=1)
    return "\n".join([f"q={q}", *(w.chars for w in words)]) + "\n"
