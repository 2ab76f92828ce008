"""lapsim benchmark: exact Ehrhart analysis timed end to end and per layer.

    python3 bench/run.py                       # every workload, one process each
    python3 bench/run.py --workload dense_small --seed 3 --seconds 30 --trace 0

One process analyzes seeded graphs through lapsim's public API in a single
thread, checks every answer by an independent method (see workloads.py), and
prints each metric by name and unit.  ``--seconds`` sets the amount of work:
a run measures a fixed number of rounds, as many as the seed package gets
through in that time, so every run of a seed attempts the same cases.  Its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same cases untraced and then
traced, and reports per-layer spans and counters (see tracing.py).

A case fails on a wrong answer, an exception, or a missed per-case deadline
in CPU time, so that a busy host does not turn a slow case into a failure.
``correct`` is false when an answer is wrong or raised; a missed deadline is
a failure but not a wrong answer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# The tail percentile is the highest ladder rung with at least TAIL_MIN_BEYOND
# samples beyond it; the sample count depends only on --seconds.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "graph_ms_p50": "ms",
    "graph_ms_tail": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Layer functions that must record calls on a workload for its trace to count.
MUST_CALL = {
    "dense_small": ("ehrhart.fpp_points", "linalg.smith_normal_form", "analysis.is_idp"),
    "sparse_large": (
        "linalg.solve_exact",
        "linalg.inverse_scaled",
        "simplex.facets",
        "linalg.smith_normal_form",
        "cli.main",
        "graph.read_edge_list",
    ),
    "oracle_crosscheck": (
        "ehrhart.count_dilate_points",
        "simplex.cofactor_reflexivity_test",
        "linalg.determinant",
    ),
}


class CaseTimeout(BaseException):
    """Raised by SIGPROF inside a case; BaseException so no handler swallows it."""


def _on_deadline(signum, frame):
    raise CaseTimeout


def import_lapsim():
    """Import lapsim afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "lapsim" / "__init__.py").is_file():
        raise SystemExit(f"lapsim sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "lapsim" or m.startswith("lapsim.")]:
        del sys.modules[name]
    lap = importlib.import_module("lapsim")
    importlib.import_module("lapsim.cli")
    if Path(lap.__file__).resolve().parent != src / "lapsim":
        raise SystemExit(f"imported lapsim from {lap.__file__}, not from {src}")
    return lap


def round_count(workload, seconds, trace):
    """Rounds per run; a traced run measures each round twice."""
    n = max(1, round(seconds * workloads.WORKLOADS[workload].rounds_per_s))
    return math.ceil(n / 2) if trace else n


def setup(workload, seed, workdir, nrounds):
    """Import, input generation and warm-up; returns (seconds, rounds)."""
    spec = workloads.WORKLOADS[workload]
    t0 = perf_counter()
    lap = import_lapsim()
    rounds = spec.make(lap, seed, workdir, nrounds)
    for case in spec.warmup(lap, workdir):
        if case.check(case.run()) is not None:
            raise SystemExit(f"warm-up case {case.kind} gave a wrong answer")
    return perf_counter() - t0, rounds


def run_case(case, deadline, tracer=None):
    """Time one case; returns (latency_s, outcome) with outcome None when right."""
    if tracer is not None:
        tracer.reset_stack()
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_PROF, deadline)
        try:
            result = case.run()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except CaseTimeout:
        return perf_counter() - t0, "timeout"
    except Exception as exc:  # a crash is a failed case, not an aborted run
        return perf_counter() - t0, f"{case.kind} raised {exc!r}"
    latency = perf_counter() - t0
    return latency, case.check(result)


def measure(rounds, deadline, tracer=None):
    """Run every round once; returns (plain, traced) samples.

    With a tracer, each round runs untraced and traced back to back, taking
    turns which goes first, so drift in machine speed cancels out of the
    tracing overhead.  A sample is (latency_s, outcome).
    """
    plain, traced = [], []
    for r, cases in enumerate(rounds):
        passes = (False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))
        for use_tracer in passes:
            if not use_tracer:
                plain += [run_case(case, deadline) for case in cases]
                continue
            tracer.install()
            try:
                traced += [run_case(case, deadline, tracer) for case in cases]
            finally:
                tracer.uninstall()
    return plain, traced


def tail_percentile(n):
    ok = [p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= TAIL_MIN_BEYOND]
    return ok[-1] if ok else 100


def end_to_end(samples, deadline, setup_times):
    failed = [s for s in samples if s[1] is not None]
    ok = len(samples) - len(failed)
    wall = sum(latency for latency, _ in samples)
    # a failed case counts as missing any latency limit
    ms = sorted(1e3 * (latency if outcome is None else max(latency, deadline)) for latency, outcome in samples)
    p = tail_percentile(len(ms))
    rank = math.ceil(p / 100 * len(ms))
    metrics = {
        "graphs_per_s": ok / wall,
        "graph_ms_p50": statistics.median(ms),
        "graph_ms_tail": ms[rank - 1],
        "success_rate": ok / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    info = {
        "tail_percentile": p,
        "tail_samples_beyond": len(ms) - rank,
        "samples": len(ms),
        "error_rate": len(failed) / len(samples),
        "timeouts": sum(1 for _, outcome in failed if outcome == "timeout"),
    }
    return metrics, info


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, deadline):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_cpu_s": deadline,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg()[0],
    }


def run_workload(args, workdir):
    deadline = workloads.WORKLOADS[args.workload].deadline_s
    nrounds = round_count(args.workload, args.seconds, args.trace)
    info = stamp(args, deadline)
    info["rounds"] = nrounds
    if not args.trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t, rounds = setup(args.workload, args.seed, workdir, nrounds)
            setup_times.append(t)
        samples, _ = measure(rounds, deadline)
        metrics, extra = end_to_end(samples, deadline, setup_times)
        units = END_TO_END_UNITS
        info.update(extra)
        ok_trace = True
    else:
        _, rounds = setup(args.workload, args.seed, workdir, nrounds)
        tracer = tracing.Tracer()
        plain, traced = measure(rounds, deadline, tracer)
        wall = sum(latency for latency, _ in traced)
        metrics = tracer.metrics(wall, len(traced), sum(latency for latency, _ in plain))
        units = tracing.metric_units()
        silent = [
            f for f in MUST_CALL[args.workload] if f not in tracer.absent and metrics[f"{f}.calls"] == 0
        ]
        ok_trace = not silent
        info.update(samples=len(traced), absent=tracer.absent, silent=silent)
        samples = plain + traced
    failures = [outcome for _, outcome in samples if outcome is not None]
    wrong = [outcome for outcome in failures if outcome != "timeout"]
    print("# stamp " + json.dumps(info))
    for outcome in sorted(set(wrong))[:10]:
        print(f"# wrong answer: {outcome}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{'error_rate':48s} {info['error_rate']:.6g} ratio")
    return {
        "correct": not wrong and ok_trace,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGPROF, _on_deadline)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        result = run_workload(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
