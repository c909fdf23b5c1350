"""Standard extensions of rich words.

Every rich word w with |w| >= 2 has exactly one one-letter extension wa whose
longest palindromic suffix is a p a, where p is the longest proper palindromic
suffix of w; that extension (the standard one) is again rich, and a is simply
the letter that precedes p in w.

In closed form, the standard steps from w grow the first |P| - q letters of
its palindromic closure P, repeated, where q is the length of the longest
palindromic prefix of w, or of its longest proper one when w = P. Sketch:
- Short of P no extension of w is a palindrome, so each step grows the
  longest palindromic suffix by two, mirroring one letter of w.
- q is P's longest proper palindromic prefix (a longer one would be a
  palindrome extending w, shorter than P) and so a border: P has period
  d = |P| - q, and its d-periodic extension X is symmetric about P's
  centre + d/2. By induction on k < d, the longest palindromic suffix after
  k more steps has length q + 2k, so the standard letter X[d - k - 1]
  mirrors to the next periodic one, X[|P| + k].
- After d steps the word is a palindrome whose longest proper palindromic
  prefix is P: a longer one would give P a smaller period and a
  palindromic prefix longer than q. So the period stays d.
"""

from __future__ import annotations

from .errors import LengthViolation, NotAPrefix, ResourceLimit, _require_int
from .palindromes import _analysis, pal_closure
from .words import Word, common_prefix_len

__all__ = ["std_ext", "is_std_ext", "max_std_ext", "rich_extensions"]

# The longest standard word built, in letters: a step count past it would ask
# for the whole answer in memory, or overflow the string repeat.
_LETTER_CAP = 100_000_000


def _std_word(w: Word, steps: int) -> str:
    """``w`` after ``steps`` standard steps. Checks richness, |w| >= 2,
    ``steps``, and then the letter cap, before anything is built."""
    idx, scan = _analysis(w)
    n = len(w.chars)
    if n < 2:
        raise LengthViolation(f"standard extension needs length >= 2, got {n}")
    _require_int(steps, "step count", lo=0, error=LengthViolation)
    if n + steps > _LETTER_CAP:
        raise ResourceLimit(
            f"standard extension to {n + steps:,} letters exceeds the cap of "
            f"{_LETTER_CAP:,}"
        )
    closure = pal_closure(w).chars
    q = scan.lpp if len(closure) > n else idx.lpps_length(n)
    period = closure[: len(closure) - q]
    return (period * ((n + steps) // len(period) + 1))[: n + steps]


def std_ext(w: Word, steps: int = 1) -> Word:
    """The word obtained from ``w`` by ``steps`` standard one-letter extensions.

    ``steps=0`` returns ``w`` itself. Requires ``w`` rich and |w| >= 2.
    Raises ``ResourceLimit`` when the result would pass 100,000,000 letters.
    """
    return w._wrap(_std_word(w, steps))


def is_std_ext(u: Word, v: Word) -> bool:
    """Whether ``u`` arises from ``v`` by standard extensions only.

    True when v is a prefix of u and every letter of u beyond v is the
    standard one. Requires ``v`` rich and |v| >= 2.
    """
    # for u shorter than v, the standard word has v's length, not u's
    return u.chars == _std_word(v, max(len(u.chars) - len(v.chars), 0))


def max_std_ext(u: Word, v: Word) -> Word:
    """The longest prefix of ``u`` that is a standard extension of ``v``.

    Requires ``v`` rich, |v| >= 2, and ``v`` a prefix of ``u``.
    """
    if not u.chars.startswith(v.chars):
        raise NotAPrefix(f"{v.chars!r} is not a prefix of {u.chars!r}")
    std = _std_word(v, len(u.chars) - len(v.chars))
    return u[: common_prefix_len(u.chars, std)]


def rich_extensions(w: Word) -> frozenset[str]:
    """The letters whose append keeps the rich word ``w`` rich.

    Returned as display letters; always nonempty (the standard letter, or for
    very short words any letter, works).
    """
    return frozenset(_analysis(w)[0].rich_letters())
