"""Probes of layers the workloads reach only from outside: an eertree
replay, the command line in-process and as a fresh process, and two-worker
enumeration. Each returns (value, samples) and raises ``ProbeError`` when
an output is wrong."""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import richwords
from richwords import cli


class ProbeError(Exception):
    pass


def _cap(words, letters: int):
    out, total = [], 0
    for s, q in words:
        if total >= letters:
            break
        out.append((s, q))
        total += len(s)
    return out, total


def replay(words, letters: int = 200_000):
    """ns per letter to append a word to a fresh PalIndex and pop it again."""
    words, total = _cap(words, letters)
    alphabets = {q: richwords.Alphabet(q) for _, q in words}
    start = perf_counter_ns()
    for s, q in words:
        idx = richwords.PalIndex(alphabets[q])
        for ch in s:
            idx.append(ch)
        if not idx.rich:
            raise ProbeError(f"PalIndex calls {s!r} not rich")
        for _ in s:
            idx.pop()
    return (perf_counter_ns() - start) / total, total


def check_file(words, path: str, limit: int = 3000):
    """Words per second through ``richwords check --file F --format json``,
    run in-process."""
    words = words[:limit]
    q = max(q for _, q in words)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"q={q}\n" + "".join(s + "\n" for s, _ in words))
    out = io.StringIO()
    try:
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", "--file", path, "--format", "json"])
        elapsed = perf_counter() - start
    finally:
        os.remove(path)
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) != len(words):
        raise ProbeError(f"check --file exited {code} with {len(lines)} lines")
    for (s, _), line in zip(words, lines):
        if json.loads(line) != {"word": s, "rich": True}:
            raise ProbeError(f"check --file line {line!r}")
    return len(words) / elapsed, len(words)


def cold_start(root: str, word: str, runs: int = 5):
    """Median ms for a fresh interpreter to run ``richwords check`` once;
    one process at a time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "richwords.cli", "check", word, "--format", "json"]
    times = []
    for _ in range(runs):
        start = perf_counter()
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        times.append((perf_counter() - start) * 1000)
        if done.returncode != 0 or json.loads(done.stdout) != {"word": word, "rich": True}:
            raise ProbeError(f"cold start exited {done.returncode}: {done.stderr.strip()}")
    return statistics.median(times), runs


def workers2(reference: dict, max_length: int = 18):
    """Serial over two-worker wall time for the binary enumeration."""
    config = richwords.EnumConfig(2, max_length)
    want = reference["2-all"]["counts"][: max_length + 1]
    times = []
    for workers in (1, 2):
        counts = [0] * (max_length + 1)
        start = perf_counter()
        for w in richwords.enumerate_rich(config, workers=workers):
            counts[len(w.chars)] += 1
        times.append(perf_counter() - start)
        if counts != want:
            raise ProbeError(f"{workers}-worker enumeration counts differ from the oracle")
    return times[0] / times[1], sum(want)
