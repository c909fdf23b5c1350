"""Smoke tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench

Each workload runs at its tiny size, and the printed metrics must be exactly
the ones BENCHMARK.json names, with their units. A corrupted output must be
caught by the checker.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

REPORTED = ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms", "failed_frac",
            "decided_frac", "peak_rss_mb")


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_prints_every_metric_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        for name in REPORTED:
            assert any(line.split()[:1] == [name] and " n=" in line for line in lines), name
    assert any(line.startswith("inputs_sha256 ") for line in lines)
    assert any(line.startswith("outputs_sha256 ") for line in lines)


def test_same_seed_repeats_digests_and_counts():
    first, second = (_bench("long-elimination", 0).stdout.splitlines() for _ in range(2))
    pick = ("inputs_sha256", "outputs_sha256", "exact counts")
    assert [l for l in first if l.startswith(pick)] == [l for l in second if l.startswith(pick)]


def _failures(wl, pool, loop):
    """(failed_frac, failed items) as the report and the JSON line give them."""
    verdicts, _ = run._check(wl, pool, loop)
    rows, _, failed = run.end_to_end(wl, pool, loop, verdicts, 0.0)
    return dict((name, value) for name, value, _, _ in rows)["failed_frac"], failed


def _corrupt(name, out):
    """The same output with one checked field made wrong."""
    if name == "corpus-sweep":
        return (out[0], out[1], out[2], out[3] + "0" if out[3] else "00", *out[4:])
    if name == "long-elimination":
        return (out[0], out[1][::-1] + out[1], *out[2:])
    if name == "enumerate":
        return (out[0][:-1] + (out[0][-1] + 1,), out[1])
    return ("witness", "0" * 30, out[2])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_catches_a_corrupted_output(name):
    wl = WORKLOADS[name]()
    pool = wl.build(5, True)
    loop = run.Loop(wl, spans.facade(None), pool, 0, Speed())
    frac, failed = _failures(wl, pool, loop)
    assert failed == 0
    # Corrupt an item whose output was clean, residuals included, if any.
    verdicts, _ = run._check(wl, pool, loop)
    k = next((i for i, v in enumerate(verdicts) if not v.residuals), 0)
    loop.outputs[k] = _corrupt(name, loop.outputs[k])
    assert wl.check(pool[k], loop.outputs[k]).failed
    frac_after, failed_after = _failures(wl, pool, loop)
    assert failed_after > failed
    assert frac_after > frac or verdicts[k].residuals


def test_corpus_counts_criterion_04_residuals():
    wl = WORKLOADS["corpus-sweep"]()
    pool = wl.build(1, True)
    loop = run.Loop(wl, spans.facade(None), pool, 0, Speed())
    verdicts, counts = run._check(wl, pool, loop)
    assert counts["residuals"] > 0
    assert not any(v.failed for v in verdicts)
    assert _failures(wl, pool, loop)[0] > 0


def test_oracle_counts_palindromes_like_brute_force():
    from itertools import product

    for n in range(8):
        for letters in product("012", repeat=n):
            s = "".join(letters)
            pals = {s[i:j] for i in range(n) for j in range(i + 1, n + 1) if oracle.is_pal(s[i:j])}
            assert oracle.pal_count(s) == len(pals), s
            assert sum(oracle.pal_profile(s).values()) == len(pals), s


def test_frozen_enumeration_reference_matches_the_oracle():
    ref = WORKLOADS["enumerate"]().reference
    for key, q, canonical, n in (("2-all", 2, False, 12), ("3-canonical", 3, True, 8)):
        counts, digest = oracle.enumerate_reference(q, n, canonical)
        assert ref[key]["counts"][: n + 1] == counts
        assert ref[key]["digests"][str(n)] == digest


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
