"""Benchmark for the pebbling package: one workload per run.

    python3 perfbench/run.py --workload cycle-scan --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations for --seconds of timed
rounds (at least one), checks every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (wall_s, op_p50_ms, setup_s, peak_rss_mb); with --trace 1
they are the per-layer ones of tracing.METRICS. The program is imported from
src/ of the checkout this file sits in, on whatever kernel backend it selects.
A record of the run, with the backend, versions and git revision, is written
to perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cycle-scan", "sweep-general", "decide-batch", "lp-opt"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit; the parent times it")
    return p.parse_args(argv)


def _probe_setup(args) -> list[float]:
    """Process start to the first operation being ready, in fresh processes:
    interpreter start, imports, input generation, catalog parsing and the
    memo arena."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            took = perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(took)
    return samples


def _backend() -> tuple[str, str]:
    from pebbling import _kernels

    if not _kernels.PURE_PYTHON:
        return "numba", "numba imported"
    if os.environ.get("PEBBLE_PURE_PYTHON", "") == "1":
        return "pure-python", "PEBBLE_PURE_PYTHON=1"
    if importlib.util.find_spec("numba") is None:
        return "pure-python", "numba not installed"
    return "pure-python", "numba failed to import"


def _git_revision() -> str:
    def git(*cmd):
        out = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return "unknown (not a git checkout)"
        rev = git("rev-parse", "HEAD") or "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return rev + ("+dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not runnable)"


def _host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, to tell a slow host from slow
    code when comparing records: this host's speed drifts by up to 2x over
    minutes."""
    times = []
    for _ in range(7):
        started = perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        times.append(perf_counter() - started)
    return statistics.median(times) * 1000.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import pebbling

    if not Path(pebbling.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pebbling imported from {pebbling.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import OUT, WORKLOADS, WrongOutput

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup = _probe_setup(args)
    host_before = _host_loop_ms()
    wl.warm_up()

    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, op_times, layer_rounds = [], [], [], []
    attempted = failed = rounds = 0
    timed = 0.0
    correct, error = True, None
    solvable = []
    last = 0.0
    try:
        # no round starts that the last one says would end past --seconds;
        # the traced run alternates traced and untraced rounds, so it needs
        # two rounds for its overhead
        while rounds < (2 if tracer else 1) or timed + last <= args.seconds:
            inputs = wl.inputs(rounds)
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                tracer.reset()
                tracer.install()
            try:
                res = wl.run(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += res.attempted
            failed += res.failed
            wl.check(inputs, res)
            if traced:
                layer_rounds.append(tracer.snapshot(res.cli))
                traced_walls.append(res.wall)
            else:
                walls.append(res.wall)
                op_times.extend(res.op_times)
            if hasattr(wl, "solvable_share"):
                solvable.append(wl.solvable_share(inputs, res))
            timed += res.wall
            last = res.wall
            rounds += 1
    except WrongOutput as exc:
        correct, error = False, str(exc)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    host_after = _host_loop_ms()
    metrics = {}
    if correct and not args.trace:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "op_p50_ms": _metric(statistics.median(op_times) * 1000.0, "ms"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    elif correct:
        # counts come from the first traced round and repeat exactly for a
        # seed; times are medians over the traced rounds
        for name, first in layer_rounds[0].items():
            unit = tracing.METRICS[name]
            if unit == "s":
                first = statistics.median(r[name] for r in layer_rounds)
            metrics[name] = _metric(first, unit)
        extra = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = _metric(extra, "s")
        metrics["trace.overhead_pct"] = _metric(100.0 * extra / statistics.median(walls), "%")

    backend, reason = _backend()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "backend_reason": reason,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git_revision(),
        "rounds": rounds,
        "ops_per_round": attempted // rounds if rounds else 0,
        "host_loop_ms": [host_before, host_after],
        "setup_samples_s": setup,
        "round_walls_s": walls,
        "traced_round_walls_s": traced_walls,
        "blind_boundaries": tracing.blind_boundaries(backend == "pure-python") if args.trace else [],
        "unseen_boundaries": tracer.unseen if tracer else [],
        "correct": correct,
        "error": error,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if solvable:
        record["solvable_share"] = statistics.mean(solvable)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {args.workload}: backend {backend} ({reason}), python {record['python']}, "
          f"numpy {record['numpy']}, git {record['git']}, {rounds} rounds; record {path}")
    if error:
        print(f"# wrong output: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
