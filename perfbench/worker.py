"""One workload run in a fresh interpreter: set-up, timed closed loop, summary.

Started by run.py, never imported by it, so that module-level state of the
library (the cache of completed systems, numpy's import) never carries over
between runs.  Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from pace import BUFFER_BYTES, Pace
from spans import Tracer

# p99.9 is left out: runs of the busiest workload land on either side of the
# 10^4 samples it needs, and a tail that switches percentile between runs of
# one commit cannot be compared
TAIL_LADDER = (99, 90, 75, 50)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_loop(wl, tr: Tracer, seconds: float, pace: Pace | None = None) -> dict:
    """Closed loop with one caller: the next op starts when the previous ends.

    Runs for `seconds` and at least `wl.window` ops, and ends on a whole
    number of `wl.cycle` ops.  Each op is checked; an exception counts as a
    failed op, not as the end of the run.  Between ops, `pace` takes its
    reference samples; latencies and the elapsed time are given both at the
    reference pace and as measured.

    Peak memory is read once the window is done, so that it does not depend
    on how many ops the machine's speed allowed (the library caches every
    completed system, and cold workloads add one per op); the reference
    pace's buffer is left out of it.
    """
    pace = pace or Pace()
    rss_mb = 0.0
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    window_counts = None
    pace.sample()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < wl.window or i % wl.cycle or time.perf_counter() < deadline:
        inp = wl.prepare(i)
        tr.op = i
        t0 = time.perf_counter()
        try:
            token, fails = wl.op(inp)
        except Exception as exc:  # a failed op is recorded, and the run goes on
            token, fails = "error", [f"op {i}: {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        spans.append((t0, time.perf_counter()))
        tr.op = -1
        if fails:
            failed += 1
            failures += fails[:3]
        if i < wl.window:
            digest.update(f"{token}|{bool(fails)}\n".encode())
            if i == wl.window - 1:
                window_counts = dict(sorted(tr.counts.items()))
                rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                          - BUFFER_BYTES / 2**20)
        i += 1
        pace.tick()
    end = time.perf_counter()
    pace.sample()
    return {
        "attempted": i,
        "failed": failed,
        "elapsed_s": pace.scaled(start, end),
        "elapsed_wall_s": end - start,
        "latencies": [pace.scaled(a, b) for a, b in spans],
        "latencies_wall": [b - a for a, b in spans],
        "failures": failures[:20],
        "digest": digest.hexdigest(),
        "counts": window_counts,
        "peak_rss_mb": rss_mb,
    }


LAYER_SPANS = (
    "graphs.parse", "graphs.validate", "presentation.build",
    "engine.complete", "engine.cache_lookup", "engine.equal", "engine.normal_form",
    "engine.replay", "engine.certificate_json", "engine.bfs",
    "kernels.nf_batch", "kernels.expand",
    "desingularize.build", "desingularize.phi", "desingularize.psi",
    "limits.continuity", "limits.induced_map", "limits.ck_check",
    "oracle.path_count",
)
COUNT_METRICS = (
    "presentation.generators", "presentation.relations",
    "engine.spairs", "engine.rules", "engine.proof_steps", "engine.proof_steps_max",
    "engine.chain_steps", "engine.chain_steps_max", "engine.certificate_json_bytes",
    "engine.bfs_reached", "desingularize.tailed_vertices",
)
LAYERS = ("graphs", "presentation", "engine", "kernels", "desingularize", "limits", "oracle")


def layer_metrics(tr: Tracer, loop: dict, pace: Pace) -> dict:
    """Mean self time per call of each layer, exact window counts, op coverage.

    Times are at the reference pace.  Self times cover set-up and timed
    phase alike, so that completions done in set-up are measured too; counts
    cover set-up and the determinism window, except engine.bfs_calls, which
    counts every BFS of the run.
    """
    selfs = tr.self_times(pace.scaled)
    out = {}
    for name in LAYER_SPANS:
        times = selfs.get(name, [])
        out[f"{name}_ms"] = 1e3 * sum(times) / len(times) if times else 0.0
        out[f"{name}.calls"] = len(times)
    counts = loop["counts"] or {}
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    calls = counts.get("engine.bfs_calls", 0)
    out["engine.bfs_saturated_ratio"] = counts.get("engine.bfs_saturated", 0) / calls if calls else 0.0
    out["engine.bfs_calls"] = tr.counts.get("engine.bfs_calls", 0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = tr.counts.get(f"{layer}.errors", 0)
    lat = loop["latencies"]
    covered = tr.covered_by_op(pace.scaled)
    out["op.total_ms"] = 1e3 * sum(lat) / len(lat)
    out["op.uncovered_ms"] = 1e3 * sum(t - covered.get(i, 0.0) for i, t in enumerate(lat)) / len(lat)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cli-dir", default=None, help="directory for the CLI case's input files")
    args = ap.parse_args(argv)

    pace = Pace()
    pace.sample()

    import workloads  # imports graphmonoid and numpy: part of set-up

    tr = Tracer(bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](args.seed, bool(args.tiny), tr)
    wl.tick = pace.tick
    wl.setup()
    setup_end = time.perf_counter()
    pace.sample()
    setup = {"setup_s": pace.scaled(args.spawned_at, setup_end),
             "setup_wall_s": setup_end - args.spawned_at}
    if args.setup_only:
        result = dict(setup, pace=pace.summary())
        if args.cli_dir:
            cli_args, expect = wl.cli_case(args.cli_dir)
            result["cli"] = {"args": cli_args, "expect": expect}
        print(json.dumps(result))
        return 0

    loop = run_loop(wl, tr, args.seconds, pace)
    n = loop["attempted"]
    q = wl.tail if n * (100 - wl.tail) / 100 >= 10 else tail_percentile(n)
    result = dict(setup)
    for suffix, lat, elapsed in (("", loop["latencies"], loop["elapsed_s"]),
                                 ("_wall", loop["latencies_wall"], loop["elapsed_wall_s"])):
        lat = sorted(lat)
        result["ops_per_s" + suffix] = (n - loop["failed"]) / elapsed
        result["latency_p50_ms" + suffix] = 1e3 * percentile(lat, 50)
        result["latency_tail_ms" + suffix] = 1e3 * percentile(lat, q)
    result.update({
        "attempted": n,
        "failed": loop["failed"],
        "elapsed_s": loop["elapsed_s"],
        "elapsed_wall_s": loop["elapsed_wall_s"],
        "tail_percentile": q,
        "peak_rss_mb": loop["peak_rss_mb"],
        "failures": loop["failures"],
        "pace": pace.summary(),
        "latencies_ms": [round(1e3 * t, 3) for t in loop["latencies"]],
        "determinism": {"window_ops": wl.window, "digest": loop["digest"], "counts": loop["counts"]},
    })
    if args.trace:
        result["layers"] = layer_metrics(tr, loop, pace)
    if args.cli_dir:
        cli_args, expect = wl.cli_case(args.cli_dir)
        result["cli"] = {"args": cli_args, "expect": expect}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
