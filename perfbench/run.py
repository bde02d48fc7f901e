#!/usr/bin/env python3
"""arczeta benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload series-queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from
``src/``.  A run replays the workload's fixed op list in whole rounds, one
client in a closed loop, and checks every output against values computed
apart from the program (``oracle.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("series-queries", "enum-window", "enum-ext")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
SETUP_TIMEOUT_S = 60

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms", "peak_rss_mb": "MB"}


def load_program() -> None:
    src = ROOT / "src"
    if not (src / "arczeta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arczeta sources under {src}; run from the root of a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import arczeta

    if not Path(arczeta.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported arczeta from {arczeta.__file__}, not from {src}")


def setup(workload: str, seed: int):
    """Generate inputs, write the temp input files, run one untimed warm-up op."""
    import workloads

    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ops, warm = workloads.WORKLOADS[workload](random.Random(seed), tmp)
    try:
        warm.run()
    except Exception:  # a fault here shows again as failed ops in the rounds
        pass
    return ops, tmp


def time_setups(workload: str, seed: int) -> list[float]:
    """Setup time of fresh processes, from spawn until the child's setup ends.

    The child prints its wall-clock time when setup is done; the parent's
    polling wait would otherwise round each sample up to its poll interval.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def quantile(xs: list[float], q: float) -> float:
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Runner:
    """Runs rounds of the op list and judges every output."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self._verdicts: dict = {}

    def round(self, tracer=None) -> tuple[float, float, list[float]]:
        outs, lat = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.request = i
            a = time.perf_counter()
            try:
                outs.append((True, op.run()))
            except Exception as exc:  # the op failed; counted below
                outs.append((False, exc))
            lat.append(time.perf_counter() - a)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for i, (ok, out) in enumerate(outs):
            self._judge(i, ok, out)
        return wall, cpu, lat

    def _judge(self, i: int, ok: bool, out) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        op = self.ops[i]
        key = (id(op), op.key(out))
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                verdict = bool(op.check(out))
            except Exception:
                verdict = False
            self._verdicts[key] = verdict
        if not verdict:
            self.failed += 1
            self.mismatched += 1


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = None if trace else time_setups(workload, seed)
    ops, tmp = setup(workload, seed)
    try:
        runner = Runner(ops)
        if trace:
            metrics = _traced(runner, workload, seed, seconds)
        else:
            metrics = _untraced(runner, seconds)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "correct": runner.mismatched == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _untraced(runner: Runner, seconds: float) -> dict:
    """Rounds until the next would overrun ``seconds``.

    wall_s is the median round.  An op's latency is its median over the
    rounds; op_p50_ms and op_p95_ms are quantiles of those over the op list,
    so a quantile never sits on the boundary between two ops of different
    size, where it would read the extreme sample of one of them.
    """
    walls, lats = [], []
    start = time.perf_counter()
    while True:
        wall, _, lat = runner.round()
        walls.append(wall)
        lats.append(lat)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    per_op = [statistics.median(samples) for samples in zip(*lats)]
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * quantile(per_op, 0.50),
        "op_p95_ms": 1000 * quantile(per_op, 0.95),
    }


def _traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    from spans import LAYER_UNITS, Tracer

    tracer = Tracer()
    plain, traced, cpus = [], [], []
    start = time.perf_counter()
    while True:
        if len(plain) > len(traced):
            tracer.install()
            try:
                wall, _, _ = runner.round(tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
        else:
            wall, cpu, _ = runner.round()
            plain.append(wall)
            cpus.append(cpu)
        if traced and time.perf_counter() - start + statistics.median(plain + traced) > seconds:
            break
    tracer.write(WORK / f"trace-{workload}-seed{seed}.jsonl")
    layers = tracer.layer_metrics(len(traced))
    layers["run.cpu_s"] = statistics.median(cpus)
    layers["run.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process; prints one line per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}  {shown}", flush=True)
    return results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return
    load_program()
    if args.setup_only:
        _, tmp = setup(args.workload, args.seed)
        print(repr(time.time()))
        shutil.rmtree(tmp, ignore_errors=True)
        return
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
