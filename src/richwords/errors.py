"""Exception types shared across the package.

``DomainError`` subclasses signal bad input (the CLI maps them to exit code 1).
``InternalInconsistency`` signals a broken internal invariant and is never
expected on valid input; ``NonMaximalRewrite`` is both, a guarantee lost on
a target the guarantees do not cover. ``ResourceLimit`` signals a blown
resource cap.
``_require_int`` is the one check of a count argument (a length, a size, a
budget, a worker count): an ``int`` at least its lowest value, a bool
counting as its integer.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "LengthViolation",
    "AlphabetMismatch",
    "EmptyPattern",
    "NotAFactor",
    "NotAPrefix",
    "NotRich",
    "NotAFlexedPalindrome",
    "NotReducible",
    "PreconditionViolation",
    "InternalInconsistency",
    "NonMaximalRewrite",
    "ResourceLimit",
]


class DomainError(ValueError):
    """Base class for rejections of mathematically invalid input."""


class LengthViolation(DomainError):
    """The word is too short for the requested operation."""


class AlphabetMismatch(DomainError):
    """Two words that must share an alphabet do not."""


class EmptyPattern(DomainError):
    """An occurrence pattern must be nonempty."""


class NotAFactor(DomainError):
    """The pattern does not occur in the word."""


class NotAPrefix(DomainError):
    """The second word is not a prefix of the first."""


class NotRich(DomainError):
    """The word is not palindromically rich."""


class NotAFlexedPalindrome(DomainError):
    """The palindrome is not a flexed palindrome of the word."""


class NotReducible(DomainError):
    """The (word, palindrome) pair fails a reducibility condition.

    Carries the structured rejection so callers can report which of the five
    conditions failed first.
    """

    def __init__(self, rejection):
        super().__init__(str(rejection))
        self.rejection = rejection


class PreconditionViolation(DomainError):
    """A documented operation precondition does not hold."""


def _require_int(value, label: str, lo: int = 1, error=PreconditionViolation) -> None:
    """Raise ``error`` naming ``label`` unless ``value`` is an ``int`` >= ``lo``
    (0 or 1)."""
    if not isinstance(value, int) or value < lo:
        bound = "a positive integer" if lo == 1 else f"an integer >= {lo}"
        raise error(f"{label} must be {bound}, got {value!r}")


class InternalInconsistency(RuntimeError):
    """A guaranteed internal invariant failed; indicates an implementation bug."""


class NonMaximalRewrite(DomainError, InternalInconsistency):
    """A rewrite lost a guarantee on a target that fails reducibility
    condition 5 (maximality), for which the guarantees are not proven.

    Bad input, not a broken invariant; it is also an
    ``InternalInconsistency``, so handlers of a failed guarantee catch it.
    """


class ResourceLimit(RuntimeError):
    """An explicit resource cap (digit count, iteration count) was exceeded."""
