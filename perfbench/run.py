#!/usr/bin/env python3
"""Layered benchmark of graphmonoid.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is used from ./src, not
installed.  Each workload run happens in a fresh interpreter (worker.py):
a single-threaded closed loop with one caller, checking every answer.

Times are scaled to a reference pace (pace.py): the machine's speed is
sampled between ops, and bare interpreter starts are timed around every CLI
run, so that a slow phase of a shared host does not pass for a slower
program.  Wall-clock figures go to the lines before the result and to the
report.

--trace 0 prints the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_tail_ms, setup_s (median of several fresh set-ups), peak_rss_mb and
cli_ms (median time of the CLI on one of the workload's inputs).
--trace 1 runs the workload untraced and then traced, and prints the
per-layer metrics of the traced run, the tracing overhead, and whether the
two runs agreed exactly on verdicts and counts.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  The full report also goes to
.perfbench-out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from pace import NOMINAL_S, START_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("emitter-cold", "warm-queries", "bfs-crosscheck", "tails-limits")
SETUP_RUNS = 3  # fresh set-ups per run; setup_s is their median
CLI_RUNS = 15
START_SAMPLES = 3  # bare interpreter starts on each side of a timed CLI run
TIME_LIMIT_S = 170  # the whole run, every child process included

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_ms": "ms",
}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # library defaults, not whatever the calling shell selected
    env.pop("GRAPHMONOID_KERNEL", None)
    env.pop("GRAPHMONOID_BUDGET", None)
    return env


class Runner:
    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("time limit reached before " + " ".join(cmd[1:3]))
        try:
            # run() kills the child on timeout and waits for it
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"time limit reached in {' '.join(cmd[1:3])}") from exc

    def worker(self, args, trace: int, extra=()) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--tiny", str(int(args.tiny)), *extra]
        proc = self.run(cmd + ["--spawned-at", repr(time.perf_counter())])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed(self, cmd: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run cmd; its time at the reference pace, its wall time, and the process."""
        starts = [self.bare_start() for _ in range(START_SAMPLES)]
        t0 = time.perf_counter()
        proc = self.run(cmd)
        t1 = time.perf_counter()
        starts += [self.bare_start() for _ in range(START_SAMPLES)]
        return (t1 - t0) * START_NOMINAL_S / statistics.median(starts), t1 - t0, proc

    def bare_start(self) -> float:
        """Wall time of a bare interpreter start: no site packages, no library."""
        t0 = time.perf_counter()
        if self.run([sys.executable, "-S", "-c", "pass"]).returncode != 0:
            raise RunError("a bare interpreter start failed")
        return time.perf_counter() - t0

    def cli(self, case: dict) -> tuple[float, float, bool]:
        """Times of one CLI run on the workload's case (as timed), and whether its output is right."""
        dt, wall, proc = self.timed([sys.executable, "-m", "graphmonoid.cli", *case["args"]])
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return dt, wall, False
        ok = proc.returncode == 0 and all(doc.get(k) == v for k, v in case["expect"].items())
        return dt, wall, ok

    def facts(self) -> dict:
        """Machine facts; the probe also compiles the library's bytecode before any timing."""
        probe = ("import json, platform, numpy, graphmonoid.cli, graphmonoid.kernels as k;"
                 "print(json.dumps({'numpy': numpy.__version__, 'backend': k.BACKEND}))")
        proc = self.run([sys.executable, "-c", probe])
        if proc.returncode != 0:
            raise RunError("cannot import graphmonoid from src/:\n" + proc.stderr[-2000:])
        facts = json.loads(proc.stdout)
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
        except OSError:
            pass
        commit = "unknown (not a git checkout)"
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except OSError:
            pass
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            **facts,
            "commit": commit,
        }


def end_to_end(runner: Runner, args, cli_dir: str):
    # set-up probes and CLI runs sit on both sides of the main run, so that a
    # few slow seconds of the machine do not decide their medians
    probe = runner.worker(args, 0, ["--setup-only", "--cli-dir", cli_dir])
    setups, case = [probe["setup_s"]], probe["cli"]
    setup_walls = [probe["setup_wall_s"]]
    cli_runs = [runner.cli(case) for _ in range(CLI_RUNS // 2)]
    main = runner.worker(args, 0)
    setups.append(main["setup_s"])
    setup_walls.append(main["setup_wall_s"])
    for _ in range(SETUP_RUNS - 2):
        more = runner.worker(args, 0, ["--setup-only"])
        setups.append(more["setup_s"])
        setup_walls.append(more["setup_wall_s"])
    cli_runs += [runner.cli(case) for _ in range(CLI_RUNS - len(cli_runs))]
    cli_errors = sum(not ok for *_, ok in cli_runs)
    values = {
        "ops_per_s": main["ops_per_s"],
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_tail_ms": main["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "cli_ms": 1e3 * statistics.median(dt for dt, *_ in cli_runs),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    wall = {
        "ops_per_s": main["ops_per_s_wall"],
        "latency_p50_ms": main["latency_p50_ms_wall"],
        "latency_tail_ms": main["latency_tail_ms_wall"],
        "setup_s": statistics.median(setup_walls),
        "cli_ms": 1e3 * statistics.median(w for _, w, _ in cli_runs),
    }
    report = {
        "runs": [main],
        "wall_clock": wall,
        "setup_s_samples": setups,
        "cli_ms_samples": [1e3 * dt for dt, *_ in cli_runs],
        "cli_errors": cli_errors,
    }
    return metrics, report, main["attempted"], main["failed"], cli_errors == 0


def per_layer(runner: Runner, args, cli_dir: str):
    base = runner.worker(args, 0)
    traced = runner.worker(args, 1, ["--cli-dir", cli_dir])
    cli_runs, import_times = [], []
    for _ in range(CLI_RUNS):
        cli_runs.append(runner.cli(traced["cli"]))
        import_times.append(runner.timed([sys.executable, "-c", "import graphmonoid.cli"])[0])
    cli_errors = sum(not ok for *_, ok in cli_runs)
    layers = dict(traced["layers"])
    layers["cli.process_ms"] = 1e3 * statistics.median(dt for dt, *_ in cli_runs)
    layers["cli.import_ms"] = 1e3 * statistics.median(import_times)
    layers["cli.errors"] = cli_errors
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    layers["failed_ratio"] = failed / attempted
    layers["trace.overhead_ratio"] = 1 - traced["ops_per_s"] / base["ops_per_s"]
    same = base["determinism"] == traced["determinism"]
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items() if not k.endswith(".calls")}
    report = {
        "runs": [base, traced],
        "calls": {k: v for k, v in layers.items() if k.endswith(".calls")},
        "wall_clock": {"ops_per_s": traced["ops_per_s_wall"], "ops_per_s_untraced": base["ops_per_s_wall"]},
        "untraced_and_traced_agree": same,
        "cli_errors": cli_errors,
    }
    return metrics, report, attempted, failed, same and cli_errors == 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small corpora, for the smoke tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "graphmonoid", "__init__.py")):
        print(f"no graphmonoid sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    runner = Runner()
    cli_dir = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(cli_dir, exist_ok=True)
    try:
        facts = runner.facts()
        measure = per_layer if args.trace else end_to_end
        metrics, report, attempted, failed, checks_ok = measure(runner, args, cli_dir)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)

    failures = [f for run in report["runs"] for f in run["failures"]]
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        tiny=args.tiny, machine=facts, metrics=metrics, failures=failures[:20],
    )
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    run0 = report["runs"][-1]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(facts)}")
    print(f"# ops={run0['attempted']} failed={run0['failed']} failed_ratio={failed / attempted:.4g} "
          f"tail=p{run0['tail_percentile']:g} of {run0['attempted']} samples "
          f"digest={run0['determinism']['digest'][:16]}")
    print(f"# deterministic counts over set-up and the first {run0['determinism']['window_ops']} ops: "
          f"{json.dumps(run0['determinism']['counts'])}")
    for line in failures[:5]:
        print(f"# FAILED: {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    pace = run0["pace"]
    print(f"# reference pace: reference_work {pace['reference_ms_median']:.3g} ms median "
          f"({pace['reference_ms_min']:.3g}-{pace['reference_ms_max']:.3g}) over {pace['samples']} samples "
          f"of the last run; times above are scaled to {1e3 * NOMINAL_S:g} ms "
          f"(CLI times to a {1e3 * START_NOMINAL_S:g}-ms interpreter start)")
    for name, v in report["wall_clock"].items():
        print(f"# wall clock, unscaled: {name} = {v:.6g}")
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
