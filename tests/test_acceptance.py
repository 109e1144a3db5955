"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 (determinism) reruns the report builders of criteria 1-6 and
demands byte-identical canonical JSON, equal to the pinned digests below.
"""

import hashlib
import json

from acceptance_support import CRITERIA

_cache: dict[int, tuple[dict, float]] = {}

TIME_LIMITS = {1: 60.0, 2: 60.0, 3: 120.0, 4: 60.0, 5: 60.0, 6: 60.0}

# first 16 hex digits of the sha256 of each canonical report; a change to any
# verdict, count or certificate in a report changes its digest
REPORT_DIGESTS = {
    1: "29504a103ee54d04",
    2: "79fc86101465661e",
    3: "84b92755aa68543b",
    4: "2c3da83fcc0314ce",
    5: "1fed8ad3287b16e4",
    6: "f1ea094f77e26475",
}


def _run(n: int) -> tuple[dict, float]:
    if n not in _cache:
        _cache[n] = CRITERIA[n]()
    return _cache[n]


def _finish(n: int, label: str, report: dict, elapsed: float):
    ok = not report["failures"]
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {n}: {label} ({elapsed:.1f}s)")
    assert ok, report["failures"][:10]
    limit = TIME_LIMITS[n]
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s, limit {limit}s"


def test_criterion_1_round_trips():
    report, elapsed = _run(1)
    assert report["graphs"] >= 20
    _finish(1, "tailed-graph round trips on generators and random elements", report, elapsed)


def test_criterion_2_relation_preservation():
    report, elapsed = _run(2)
    assert report["forward_relations"] > 0 and report["backward_relations"] > 0
    _finish(2, "defining relations preserved under both generator maps", report, elapsed)


def test_criterion_3_engine_vs_bfs():
    report, elapsed = _run(3)
    assert report["bfs_verdicts"] > 10_000
    _finish(3, "completion agrees with depth-8 congruence search", report, elapsed)


def test_criterion_4_oracle_equivalence():
    report, elapsed = _run(4)
    assert report["agreements"] == report["pairs"] == 5000
    _finish(4, "equality matches path counting on 50 seeded DAGs", report, elapsed)


def test_criterion_5_continuity():
    report, elapsed = _run(5)
    assert len(report["chains"]) == 3
    _finish(5, "chain-level equality is limit equality, generators covered", report, elapsed)


def test_criterion_6_naturality():
    report, elapsed = _run(6)
    assert report["generators_checked"] > 0
    _finish(6, "induced-map/oracle square commutes for seeded CK-morphisms", report, elapsed)


def test_criterion_7_determinism():
    first = {n: json.dumps(_run(n)[0], sort_keys=True) for n in CRITERIA}
    second = {n: json.dumps(CRITERIA[n]()[0], sort_keys=True) for n in CRITERIA}
    for n in CRITERIA:
        assert first[n] == second[n], f"criterion {n} report is not reproducible"
        digest = hashlib.sha256(first[n].encode()).hexdigest()[:16]
        assert digest == REPORT_DIGESTS[n], f"criterion {n} report digest {digest} is not the pinned one"
    print("PASS criterion 7: reports for criteria 1-6 reproduce byte-identically")
