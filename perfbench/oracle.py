"""Independent references for generating and checking benchmark data.

Everything here works on plain display strings, follows the definitions
directly and imports nothing from ``richwords``, so a fault in the package
cannot hide in its own check. The one algorithmic idea is the palindromic
suffix set of each prefix: the palindromic suffixes of ``u + c`` are ``c``
plus ``c p c`` for every palindromic suffix ``p`` of ``u`` (the empty one
included) that ``c`` precedes. A prefix brings a new palindrome exactly when
its longest palindromic suffix does not occur earlier, so counting those
prefixes counts the distinct nonempty palindromic factors (Droubay, Justin
and Pirillo, TCS 2001); a word is rich when every prefix brings one.
"""

from __future__ import annotations

import hashlib

DISPLAY = "0123456789abcdefghijklmnopqrstuvwxyz"


def _next_suffixes(s: str, k: int, suffixes: list[int], c: str) -> list[int]:
    """Palindromic suffix lengths of ``s[:k] + c``, given those of ``s[:k]``
    (0 included)."""
    out = [1]
    for length in suffixes:
        i = k - 1 - length
        if i >= 0 and s[i] == c:
            out.append(length + 2)
    return out


def _rich_step(s: str, suffixes: list[int], c: str) -> list[int] | None:
    """Palindromic suffix lengths of ``s + c`` when that append brings a new
    palindrome, else None."""
    nxt = _next_suffixes(s, len(s), suffixes, c)
    top = max(nxt)
    if s.find(s[len(s) + 1 - top :] + c) == -1:
        return nxt
    return None


def prefix_palindromes(s: str) -> tuple[list[int], list[int], list[bool]]:
    """Per prefix length k (index k, k >= 1): longest palindromic suffix,
    longest proper palindromic suffix, and whether the former is new there.
    Index 0 describes the empty prefix."""
    lps, lpps, new = [0], [0], [True]
    suffixes = [0]
    for k in range(1, len(s) + 1):
        nxt = _next_suffixes(s, k - 1, suffixes, s[k - 1])
        top = max(nxt)
        lps.append(top)
        lpps.append(max((x for x in nxt if x < k), default=0))
        new.append(s.find(s[k - top : k], 0, k - 1) == -1)
        suffixes = nxt + [0]
    return lps, lpps, new


def pal_count(s: str) -> int:
    """Distinct nonempty palindromic factors of ``s``."""
    return sum(prefix_palindromes(s)[2][1:])


def is_rich(s: str) -> bool:
    return pal_count(s) == len(s)


def is_pal(s: str) -> bool:
    return s == s[::-1]


def pal_profile(s: str) -> dict[int, int]:
    """Distinct palindromic factors of each positive length, by brute force."""
    pals = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    out: dict[int, int] = {}
    for p in pals:
        if is_pal(p):
            out[len(p)] = out.get(len(p), 0) + 1
    return dict(sorted(out.items()))


def occ(s: str, p: str) -> int:
    """Occurrences of ``p`` in ``s``, overlaps counted."""
    return sum(1 for i in range(len(s) - len(p) + 1) if s.startswith(p, i))


def std_letter(s: str) -> str:
    """The letter whose append extends ``s`` standardly (|s| >= 1)."""
    _, lpps, _ = prefix_palindromes(s)
    return s[len(s) - 1 - lpps[len(s)]]


def rich_letters(s: str, q: int) -> str:
    """Letters whose append keeps the rich word ``s`` rich."""
    suffixes = [0]
    for k in range(len(s)):
        suffixes = _next_suffixes(s, k, suffixes, s[k]) + [0]
    return "".join(c for c in DISPLAY[:q] if _rich_step(s, suffixes, c) is not None)


def flexed(s: str) -> dict[str, tuple[int, str]]:
    """First arisings of the flexed palindromes of ``s``.

    Step k (appending s[k-1], k >= 2) is flexed when the letter differs from
    the standard letter of s[:k-1], the one preceding its longest proper
    palindromic suffix. Maps the palindrome born there to (k, the palindrome
    the standard step would have made).
    """
    lps, lpps, _ = prefix_palindromes(s)
    out: dict[str, tuple[int, str]] = {}
    for k in range(2, len(s) + 1):
        plen = lpps[k - 1]
        x = s[k - 2 - plen]
        if s[k - 1] != x:
            pal = s[k - lps[k] : k]
            if pal not in out:
                out[pal] = (k, x + s[k - 1 - plen : k - 1] + x)
    return out


def lpp(s: str) -> int:
    """Length of the longest palindromic prefix."""
    lps = prefix_palindromes(s)[0]
    return max(k for k in range(len(s) + 1) if lps[k] == k)


def reducible(s: str, r: str, flex: dict[str, tuple[int, str]]) -> bool:
    """The five reducibility conditions for target ``r`` of the rich ``s``."""
    return (
        is_rich(r)
        and len(r) > 2
        and r in flex
        and r not in s[: lpp(s)]
        and len(r) >= max(map(len, flex))
    )


def _pooled(s: str, p: str) -> int:
    total = occ(s, p)
    if not is_pal(p):
        total += occ(s, p[::-1])
    return total


def marked_window(s: str, a: str, b: str) -> tuple[int, int] | None:
    """First window of ``s`` (shortest, then leftmost) that starts with ``a``
    or its reverse, ends with ``b`` or its reverse, and holds each marker
    exactly once with both orientations pooled; None when there is none."""
    heads = [i for i in range(len(s)) if s.startswith(a, i) or s.startswith(a[::-1], i)]
    tails = [
        j for j in range(1, len(s) + 1)
        if s.endswith(b, 0, j) or s.endswith(b[::-1], 0, j)
    ]
    spans = sorted(
        ((j - i, i) for i in heads for j in tails if j - i >= max(len(a), len(b))),
    )
    for length, i in spans:
        f = s[i : i + length]
        if _pooled(f, a) == 1 and _pooled(f, b) == 1:
            return i, i + length
    return None


def flex_bound(m: int, q: int) -> int:
    """The flexed-palindrome count bound, with ceil(log2 m) as exponent."""
    return (q + 1) * m * m * (4 * q**10 * m) ** (m - 1).bit_length()


def random_rich(rng, q: int, n: int) -> str:
    """A rich word of length ``n`` over ``q`` letters: a random walk that
    appends, at each step, a uniformly chosen letter that keeps it rich."""
    s = ""
    suffixes = [0]
    for _ in range(n):
        options = []
        for c in DISPLAY[:q]:
            nxt = _rich_step(s, suffixes, c)
            if nxt is not None:
                options.append((c, nxt))
        c, nxt = options[rng.randrange(len(options))]
        s += c
        suffixes = nxt + [0]
    return s


def rich_words(q: int, max_length: int, canonical: bool = False):
    """Depth-first preorder of the rich words up to ``max_length``, the empty
    word first and children in display order; with ``canonical`` only words
    whose letters first appear in increasing order."""
    letters = DISPLAY[:q]
    stack = [("", [0], 0)]
    while stack:
        s, suffixes, used = stack.pop()
        yield s
        if len(s) >= max_length:
            continue
        children = []
        for rank, c in enumerate(letters):
            if canonical and rank > used:
                break
            nxt = _rich_step(s, suffixes, c)
            if nxt is not None:
                children.append((s + c, nxt + [0], used + (rank == used)))
        stack.extend(reversed(children))


def enumerate_reference(q: int, max_length: int, canonical: bool):
    """Per-length counts of ``rich_words`` and the sha256 of its stream, one
    word per line."""
    counts = [0] * (max_length + 1)
    digest = hashlib.sha256()
    for s in rich_words(q, max_length, canonical):
        counts[len(s)] += 1
        digest.update(s.encode() + b"\n")
    return counts, digest.hexdigest()


# Configurations frozen in enum_reference.json: per-length counts up to the
# largest length, stream digests for each length the benchmark runs.
FROZEN = {(2, False): (8, 10, 12, 16, 18, 20), (3, True): (7, 8, 12, 15)}


def freeze(path: str) -> None:
    """Regenerate enum_reference.json (about ten seconds)."""
    import json

    ref = {}
    for (q, canonical), lengths in FROZEN.items():
        ref[f"{q}-{'canonical' if canonical else 'all'}"] = {
            "counts": enumerate_reference(q, max(lengths), canonical)[0],
            "digests": {str(n): enumerate_reference(q, n, canonical)[1] for n in lengths},
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    import os

    freeze(os.path.join(os.path.dirname(os.path.abspath(__file__)), "enum_reference.json"))
