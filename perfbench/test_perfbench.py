"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny runs of every workload must print every metric BENCHMARK.json names,
each with a unit, and no failed op; a corrupted certificate or verdict must
count as a failed op; a directory without the library must make the
benchmark fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_loop  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["failed_ratio"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_pace_scales_by_the_samples_around_an_interval():
    pace = Pace()
    pace.starts, pace.ends = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1]
    pace.durations = [NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S]
    # between the first two samples: median of all three is nominal
    assert pace.scaled(0.1, 1.0) == pytest.approx(0.9)
    # sampling time does not count
    assert pace.scaled(0.0, 2.1) == pytest.approx(1.8)
    # after the last sample, only the last two samples are near: median 1.5x
    assert pace.scaled(2.1, 3.1) == pytest.approx(1 / 1.5)
    # before the first sample
    assert pace.scaled(-1.0, 0.0) == pytest.approx(1.0)


def tiny(name):
    wl = workloads.WORKLOADS[name](seed=1, tiny=True, tracer=Tracer(False))
    wl.setup()
    return wl


def test_corrupted_certificate_is_a_failure(monkeypatch):
    real = workloads.equal

    def corrupted(p, u, v, budget=None):
        res = real(p, u, v, budget)
        if not res.chain:
            return res
        (rel, direction), *rest = res.chain
        return dataclasses.replace(res, chain=((rel, -direction), *rest))

    monkeypatch.setattr(workloads, "equal", corrupted)
    wl = tiny("emitter-cold")
    loop = run_loop(wl, wl.tr, seconds=0)
    # each op fails, by the replay check or by serialization raising
    assert loop["failed"] == loop["attempted"] == wl.window


def test_corrupted_verdict_is_a_failure(monkeypatch):
    real = workloads.normal_form
    flip = itertools.count()

    def corrupted(rs, x):
        nf = real(rs, x)
        # every other call answers with its argument, which breaks verdicts
        # whenever the two sides of a pair have different normal forms
        return x if next(flip) % 2 else nf

    monkeypatch.setattr(workloads, "normal_form", corrupted)
    wl = tiny("warm-queries")
    loop = run_loop(wl, wl.tr, seconds=0)
    assert loop["failed"] > 0
    assert any("normal forms say" in f or "path counts say" in f for f in loop["failures"])


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "emitter-cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
