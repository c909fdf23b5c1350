"""The four benchmark workloads: seeded inputs, the calls each item makes,
and the independent check of every output.

Each workload drives the library only through the facade ``L`` it is given
(see ``spans.py``), whose attributes are the package's public functions,
optionally wrapped in spans. Inputs come from ``oracle.py`` and a seeded
``random.Random``; outputs are reduced to plain tuples so they can be
compared, digested and checked after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

import oracle
from richwords import EnumConfig, PreconditionViolation, ReduciblePair, SearchBudget

HERE = os.path.dirname(os.path.abspath(__file__))


def sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Verdict:
    """What the checker found in one output."""

    failed: bool = False  # wrong output: a guarantee the program promises broke
    residuals: int = 0  # eliminations that kept a flexed palindrome of length 2
    decided: bool = True  # the query returned an answer (search only can say no)
    counts: dict = field(default_factory=dict)  # exact counts, summed over the pool
    notes: list = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed = True
        self.notes.append(note)


class Workload:
    name = ""
    why = ""
    streams = False  # items are emitted words, timed by the gap between them

    def build(self, seed: int, smoke: bool) -> list:
        raise NotImplementedError

    def run(self, L, item, gaps=None):
        raise NotImplementedError

    def check(self, item, out) -> Verdict:
        raise NotImplementedError

    def words(self, pool, outputs) -> list[tuple[str, int]]:
        """(word, alphabet size) pairs for the replay and CLI probes."""
        raise NotImplementedError

    def warmup(self, pool) -> list:
        return pool[: max(1, len(pool) // 50)]

    def calibration(self, pool) -> list | None:
        """Items for the trace-overhead calibration; None takes a prefix of
        the pool worth a fixed time."""
        return None


# -- corpus-sweep -------------------------------------------------------------

# Rich words per length in the acceptance corpora (binary <= 18, ternary <= 12),
# from oracle.enumerate_reference; lengths are drawn in these proportions.
CORPUS_COUNTS = {
    2: [1, 2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756, 3246, 5916, 10618,
        18800, 32846, 56704, 96702],
    3: [1, 3, 9, 27, 75, 201, 513, 1269, 3033, 7047, 15903, 35031, 75291],
}


def _orient(window: str, marker: str, at_start: bool) -> str:
    hit = window.startswith(marker) if at_start else window.endswith(marker)
    return marker if hit else marker[::-1]


class CorpusSweep(Workload):
    name = "corpus-sweep"
    why = ("many short rich words through the acceptance traffic, so fixed "
           "per-call costs (index rebuilds, Word validation, traces) dominate")

    def build(self, seed, smoke):
        rng = random.Random(seed)
        size = 60 if smoke else 1000
        strata = [(q, n) for q, counts in CORPUS_COUNTS.items() for n in range(1, len(counts))]
        weights = [CORPUS_COUNTS[q][n] for q, n in strata]
        seen, pool = set(), []
        while len(pool) < size:
            q, n = rng.choices(strata, weights)[0]
            item = (oracle.random_rich(rng, q, n), q)
            if item not in seen:
                seen.add(item)
                pool.append(item)
        for s, q in pool:
            if not oracle.is_rich(s):
                raise RuntimeError(f"generated input {s!r} is not rich")
        return pool

    def run(self, L, item, gaps=None):
        s, q = item
        n = len(s)
        w = L.word(s, q)
        rich = L.is_rich(w)
        recs = L.flexed_palindromes(w)
        flex = tuple((r.palindrome.chars, r.position, r.replacement.chars) for r in recs)
        rewrites = []
        for rec in recs:
            r = rec.palindrome
            if len(r.chars) <= 2:
                continue
            outcome = L.check_reducible(w, r)
            if isinstance(outcome, ReduciblePair):
                res, trace = L.reduced_word(w, r)
                rewrites.append((r.chars, res.chars, trace.case.value))
            else:
                rewrites.append((r.chars, None, outcome.condition))
        ext = L.std_ext(w).chars if n >= 2 else None
        letters = "".join(sorted(L.rich_extensions(w)))
        elims = []
        top = min(4, n)
        for al in range(1, top + 1):
            for bl in range(1, top + 1):
                a, b = s[:al], s[-bl:]
                try:
                    win = L.shortest_marked_factor(w, L.word(a, q), L.word(b, q))
                except PreconditionViolation:
                    elims.append((a, b, None, None, None))
                    continue
                wc = win.chars
                a2, b2 = _orient(wc, a, True), _orient(wc, b, False)
                final, trace = L.eliminate(win, L.word(a2, q), L.word(b2, q))
                elims.append((a, b, wc, final.chars, trace.iterations))
        profile = tuple(L.pal_complexity_profile(w).items())
        rep = L.superword_length_bound(top, q)
        lb = rep.length_bound
        bound = (rep.flex_bound, None if lb is None else (lb.bit_length(), lb.bit_count()))
        return (rich, flex, tuple(rewrites), ext, letters, tuple(elims), profile, bound)

    def check(self, item, out):
        s, q = item
        rich, flex, rewrites, ext, letters, elims, profile, bound = out
        v = Verdict(counts={"rewrites": 0, "return": 0, "closure": 0, "eliminations": 0,
                            "undefined": 0, "passes": 0, "residuals": 0})
        ref = oracle.flexed(s)
        if rich is not True:
            v.fail("is_rich said no")
        if flex != tuple((p, pos, rep) for p, (pos, rep) in sorted(ref.items(), key=lambda x: x[1][0])):
            v.fail("flexed palindromes differ")
        want = [p for p, _ in sorted(ref.items(), key=lambda x: x[1][0]) if len(p) > 2]
        if [r for r, _, _ in rewrites] != want:
            v.fail("check_reducible targets differ")
        for r, res, case in rewrites:
            if oracle.reducible(s, r, ref) != (res is not None):
                v.fail(f"check_reducible verdict for {r!r}")
            if res is None:
                continue
            v.counts["rewrites"] += 1
            v.counts[case] += 1
            k = len(r) - 1
            if not (
                oracle.is_rich(res)
                and set(oracle.flexed(res)) <= set(ref)
                and oracle.occ(res, r) < oracle.occ(s, r)
                and res[:k] == s[:k]
                and res[len(res) - k :] == s[len(s) - k :]
            ):
                v.fail(f"reduced_word guarantee for {r!r}")
        if len(s) >= 2 and ext != s + oracle.std_letter(s):
            v.fail("std_ext")
        if letters != oracle.rich_letters(s, q):
            v.fail("rich_extensions")
        seen = {}
        for a, b, wc, final, passes in elims:
            span = oracle.marked_window(s, a, b)
            if (None if span is None else s[span[0] : span[1]]) != wc:
                v.fail(f"shortest_marked_factor for {a!r}, {b!r}")
                continue
            if wc is None:
                v.counts["undefined"] += 1
                continue
            v.counts["eliminations"] += 1
            v.counts["passes"] += passes
            key = (wc, a, b, final)
            if key not in seen:
                seen[key] = check_elimination(final, a, b)
            outcome = seen[key]
            if outcome == "failed":
                v.fail(f"eliminate guarantee for {a!r}, {b!r}")
            elif outcome == "residual":
                v.residuals += 1
        v.counts["residuals"] = v.residuals
        if dict(profile) != oracle.pal_profile(s):
            v.fail("pal_complexity_profile")
        m = min(4, len(s))
        k = oracle.flex_bound(m, q)
        if bound[0] != k or (bound[1] is not None and bound[1] != (m.bit_length() + k + 2, m.bit_count())):
            v.fail("superword_length_bound")
        return v

    def words(self, pool, outputs):
        return pool


def check_elimination(final: str, a: str, b: str) -> str:
    """'ok', 'residual' (only flexed palindromes of length 2 above a marker
    bound of 1, the known limitation of the loop), or 'failed'."""
    m = max(len(a), len(b))
    if not (
        oracle.is_rich(final)
        and (final.startswith(a) or final.startswith(a[::-1]))
        and (final.endswith(b) or final.endswith(b[::-1]))
    ):
        return "failed"
    over = [p for p in oracle.flexed(final) if len(p) > m]
    if not over:
        return "ok"
    if m == 1 and all(len(p) == 2 for p in over):
        return "residual"
    return "failed"


# -- long-elimination ----------------------------------------------------------

LONG_LENGTH = 300
LONG_ALPHABETS = (2, 3, 4)


class LongElimination(Workload):
    name = "long-elimination"
    why = ("long rich words framed by fresh-letter markers, so the whole word "
           "is the marked window and the quadratic trim and per-pass index "
           "rebuilds dominate")

    def build(self, seed, smoke):
        rng = random.Random(seed)
        n = 50 if smoke else LONG_LENGTH
        pool = []
        for q in LONG_ALPHABETS * (2 if smoke else 66):
            body = oracle.random_rich(rng, q, n - 2)
            a, b = oracle.DISPLAY[q], oracle.DISPLAY[q + 1]
            s = a + body + b
            if not oracle.is_rich(s):
                raise RuntimeError(f"generated input {s!r} is not rich")
            pool.append((s, q + 2, a, b))
        return pool

    def run(self, L, item, gaps=None):
        s, q, a, b = item
        w = L.word(s, q)
        wa, wb = L.word(a, q), L.word(b, q)
        win = L.shortest_marked_factor(w, wa, wb)
        final, trace = L.eliminate(win, wa, wb)
        steps = tuple(
            (st.target.chars, st.before.chars, st.reduction.result.chars, st.after.chars)
            for st in trace.steps
        )
        return (win.chars, final.chars, trace.iterations, steps)

    def check(self, item, out):
        s, q, a, b = item
        win, final, passes, steps = out
        v = Verdict(counts={"passes": passes, "residuals": 0})
        if win != s:
            v.fail("marked window is not the whole word")
        if passes != len(steps):
            v.fail("iteration count differs from the steps")
        current = win
        for target, before, result, after in steps:
            if before != current or len(target) <= 2:
                v.fail("steps do not chain")
                break
            if oracle.occ(result, target) >= oracle.occ(before, target):
                v.fail(f"occurrences of {target!r} did not decrease")
            if after not in result or not oracle.is_rich(after):
                v.fail("re-trim is not a rich factor of the rewrite")
            current = after
        if current != final:
            v.fail("final is not the last step's word")
        outcome = check_elimination(final, a, b)
        if outcome == "failed":
            v.fail("eliminate guarantee")
        elif outcome == "residual":
            v.residuals = v.counts["residuals"] = 1
        return v

    def words(self, pool, outputs):
        return [(s, q) for s, q, _, _ in pool]


# -- enumerate -------------------------------------------------------------------


def load_enum_reference() -> dict:
    with open(os.path.join(HERE, "enum_reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


ENUM_CONFIGS = ((2, 20, False), (3, 15, True))
ENUM_SMOKE = ((2, 10, False), (3, 7, True))
CHUNK = 1 << 14  # words hashed at a time; the speed factor is refreshed as often


class Enumerate(Workload):
    name = "enumerate"
    why = ("serial enumeration: the tree walker and PalIndex append/pop do all "
           "the work and reduction/elimination none, a control for pipeline "
           "changes")
    streams = True

    def __init__(self):
        self.reference = load_enum_reference()

    def build(self, seed, smoke):
        # Enumeration has no random input; the seed orders the two runs.
        pool = list(ENUM_SMOKE if smoke else ENUM_CONFIGS)
        random.Random(seed).shuffle(pool)
        return pool

    def warmup(self, pool):
        return [(q, min(L, 8), c) for q, L, c in pool]

    def calibration(self, pool):
        return [(q, min(L, 16 if q == 2 else 12), c) for q, L, c in pool]

    def run(self, L, item, gaps=None):
        q, max_length, canonical = item
        counts = [0] * (max_length + 1)
        h = hashlib.sha256()
        buf: list[str] = []

        def flush():
            for chars in buf:
                counts[len(chars)] += 1
            h.update(("\n".join(buf) + "\n").encode())
            buf.clear()

        hist = factor = None
        if gaps is not None:
            hist, speed = gaps.scaled, gaps.speed
            factor = speed.factors[speed.tick()]
        prev = perf_counter_ns()
        for w in L.enumerate_rich(EnumConfig(q, max_length, canonical)):
            if hist is not None:
                g = int((perf_counter_ns() - prev) / factor)
                hist[g] = hist.get(g, 0) + 1
            buf.append(w.chars)
            if len(buf) == CHUNK:
                flush()
                if hist is not None:
                    factor = speed.factors[speed.tick()]
            prev = perf_counter_ns()
        flush()
        return (tuple(counts), h.hexdigest())

    def check(self, item, out):
        q, max_length, canonical = item
        counts, digest = out
        ref = self.reference[f"{q}-{'canonical' if canonical else 'all'}"]
        v = Verdict(counts={"words": sum(counts)})
        if list(counts) != ref["counts"][: max_length + 1]:
            v.fail("per-length counts differ from the oracle")
        if digest != ref["digests"].get(str(max_length)):
            v.fail("stream differs from the oracle's preorder")
        return v

    def words(self, pool, outputs):
        # The words of smaller runs of the same configurations.
        return [
            (s, q)
            for q, n, c in pool
            for s in oracle.rich_words(q, min(n, 14 if q == 2 else 10), c)
            if s
        ]


# -- superword-search ------------------------------------------------------------

SEARCH_NODES = 20_000


class SuperwordSearch(Workload):
    name = "superword-search"
    why = ("budgeted iterative deepening over the same walker and index as "
           "enumerate, with revisits; some pairs exhaust the node budget")

    def build(self, seed, smoke):
        # One pair in three: two factors of one binary rich word, so a common
        # superword exists and is found fast. The rest: two independent
        # ternary rich words of length 7-10, which nearly always exhaust the
        # node budget.
        rng = random.Random(seed)
        pool = []
        for k in range(30 if smoke else 300):
            if k % 3 == 0:
                q = 2
                host = oracle.random_rich(rng, q, rng.randint(12, 16))
                la, lb = rng.randint(4, 10), rng.randint(4, 10)
                i = rng.randint(0, len(host) - la)
                # Overlapping or adjacent, so the host's window holding both
                # fits the length limit |a| + |b|.
                j = rng.randint(max(0, i - lb), min(len(host) - lb, i + la))
                a, b = host[i : i + la], host[j : j + lb]
            else:
                q = 3
                a = oracle.random_rich(rng, q, rng.randint(7, 10))
                b = oracle.random_rich(rng, q, rng.randint(7, 10))
            for t in (a, b):
                if not oracle.is_rich(t):
                    raise RuntimeError(f"generated target {t!r} is not rich")
            pool.append((a, b, q, len(a) + len(b), k % 3 == 0))
        return pool

    def run(self, L, item, gaps=None):
        a, b, q, max_length, _ = item
        v = L.find_common_superword(
            L.word(a, q), L.word(b, q), SearchBudget(max_length, SEARCH_NODES)
        )
        return (v.status.value, None if v.witness is None else v.witness.chars, v.explored)

    def check(self, item, out):
        a, b, q, _, related = item
        status, witness, explored = out
        v = Verdict(decided=witness is not None, counts={"nodes": explored})
        if explored > SEARCH_NODES:
            v.fail("explored more nodes than the budget")
        if status == "witness":
            if witness is None or not (a in witness and b in witness and oracle.is_rich(witness)):
                v.fail("witness does not re-validate")
        elif witness is not None or status != "exhausted-budget":
            v.fail("malformed verdict")
        elif related and explored < SEARCH_NODES:
            v.fail("reported no witness within the length limit, but one exists")
        return v

    def words(self, pool, outputs):
        out = []
        for (a, b, q, _, _), (_, witness, _) in zip(pool, outputs):
            out += [(a, q), (b, q)] + ([(witness, q)] if witness else [])
        return out


WORKLOADS = {w.name: w for w in (CorpusSweep, LongElimination, Enumerate, SuperwordSearch)}
