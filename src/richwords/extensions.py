"""Standard extensions of rich words.

Every rich word w with |w| >= 2 has exactly one one-letter extension wa whose
longest palindromic suffix is a p a, where p is the longest proper palindromic
suffix of w; that extension (the standard one) is again rich, and a is simply
the letter that precedes p in w. Iterating standard steps from w eventually
reaches the palindromic closure of w.
"""

from __future__ import annotations

from .errors import LengthViolation, NotAPrefix, _require_int
from .palindromes import PalIndex, _analysis
from .words import Word

__all__ = ["std_ext", "is_std_ext", "max_std_ext", "rich_extensions"]


def _require_extendable(w: Word) -> PalIndex:
    """The index ``w`` keeps, to read or copy, never to edit."""
    idx = _analysis(w)[0]
    if len(w.chars) < 2:
        raise LengthViolation(
            f"standard extension needs length >= 2, got {len(w.chars)}"
        )
    return idx


def _std_run(s: str, idx: PalIndex, k: int) -> int:
    """Where the standard run through ``s`` from position ``k`` stops: the
    first position whose letter is not the standard one, or ``len(s)``.
    ``idx`` indexes ``s[:k]``; a copy of it is extended along the run."""
    idx = idx.copy()
    while k < len(s) and s[k] == idx.std_letter(k):
        idx.append(s[k])
        k += 1
    return k


def std_ext(w: Word, steps: int = 1) -> Word:
    """The word obtained from ``w`` by ``steps`` standard one-letter extensions.

    ``steps=0`` returns ``w`` itself. Requires ``w`` rich and |w| >= 2.
    """
    idx = _require_extendable(w)
    _require_int(steps, "step count", lo=0, error=LengthViolation)
    idx = idx.copy()
    for _ in range(steps):
        idx.append(idx.std_letter(len(idx)))
    return w._wrap(idx.chars)


def is_std_ext(u: Word, v: Word) -> bool:
    """Whether ``u`` arises from ``v`` by standard extensions only.

    True when v is a prefix of u and every letter of u beyond v is the
    standard one. Requires ``v`` rich and |v| >= 2.
    """
    idx = _require_extendable(v)
    if not u.chars.startswith(v.chars):
        return False
    return _std_run(u.chars, idx, len(v.chars)) == len(u.chars)


def max_std_ext(u: Word, v: Word) -> Word:
    """The longest prefix of ``u`` that is a standard extension of ``v``.

    Requires ``v`` rich, |v| >= 2, and ``v`` a prefix of ``u``.
    """
    if not u.chars.startswith(v.chars):
        raise NotAPrefix(f"{v.chars!r} is not a prefix of {u.chars!r}")
    idx = _require_extendable(v)
    return u[: _std_run(u.chars, idx, len(v.chars))]


def rich_extensions(w: Word) -> frozenset[str]:
    """The letters whose append keeps the rich word ``w`` rich.

    Returned as display letters; always nonempty (the standard letter, or for
    very short words any letter, works).
    """
    return frozenset(_analysis(w)[0].rich_letters())
