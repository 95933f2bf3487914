"""One workload in one fresh interpreter: ``python -m benchmarks.e2e.child``.

``run.py`` starts this with single-threaded BLAS and ``PYTHONPATH=src``
and reads the last line of standard output, one JSON object with every
number the run produced.  Untraced runs give the end-to-end metrics;
``--trace 1`` gives the per-layer table of one repetition instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import spans as sp
from .layers import layer_metrics
from .specs import SETUP_ROUNDS, UNITS, WORKLOADS, reps_for
from .workloads import CLASSES, Workload

HERE = Path(__file__).resolve().parent


def environment() -> Dict[str, object]:
    """Where the numbers were taken; a run started with the 1-minute
    load average above the core count is marked noisy."""
    import scipy

    from repro import kernels

    try:
        sha = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": cores, "kernels_backend": kernels.backend(),
        "cpu": cpu, "load_1min": load, "noisy": load > cores,
    }


def repeat(workload: Workload, reps: int) -> Dict[str, float]:
    """``reps`` repetitions with the collector paused inside each;
    returns the fingerprint taken after the first."""
    first = {}
    for rep in range(reps):
        gc.collect()
        gc.disable()
        try:
            workload.repetition()
        finally:
            gc.enable()
        if rep == 0:
            first = workload.fingerprint()
    return first


def end_to_end(workload: Workload, setups: List[float]) -> Dict[str, dict]:
    ops = np.asarray(workload.op_walls)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "total_wall_s": (statistics.median(workload.rep_walls), len(workload.rep_walls)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "op_p50_ms": (float(np.median(ops)) * 1e3, len(ops)),
        "op_p80_ms": (float(np.percentile(ops, 80)) * 1e3, len(ops)),
        "work_per_s": (workload.work / workload.work_wall, len(ops)),
        "compute_teps": (workload.edge_steps / workload.run_wall, len(workload.step_sims)),
        "sim_op_p50_us": (float(np.median(workload.op_sims)) * 1e6, len(workload.op_sims)),
        "sim_superstep_us": (float(np.mean(workload.step_sims)) * 1e6, len(workload.step_sims)),
    }
    return {k: {"value": v, "unit": UNITS[k], "n": n} for k, (v, n) in values.items()}


def run_untraced(name: str, seed: int, reps: int, smoke: bool) -> dict:
    setups = []
    for _ in range(SETUP_ROUNDS):
        workload = CLASSES[name](name, seed, smoke)
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    first = repeat(workload, reps)
    return {
        "metrics": end_to_end(workload, setups),
        "extra": {k: {"value": v, "unit": UNITS[k]} for k, v in workload.extra.items()},
        "deterministic": first,
        "measured_s": sum(workload.rep_walls),
        **accounting(workload),
    }


def run_traced(name: str, seed: int, smoke: bool) -> dict:
    """One untraced repetition for the overhead ratio, then the same
    repetition again on a fresh set-up with every seam wrapped."""
    plain = CLASSES[name](name, seed, smoke)
    plain.setup()
    plain_first = repeat(plain, 1)
    plain_wall = plain.rep_walls[0]
    del plain

    recorder = sp.Recorder()
    recorder.install()  # before the cluster exists: callbacks and hash functions bind at build
    try:
        workload = CLASSES[name](name, seed, smoke, recorder)
        workload.setup()
        before = workload.counters()
        first = repeat(workload, 1)
        after = workload.counters()
    finally:
        recorder.uninstall()
    if first != plain_first:
        raise RuntimeError(f"tracing changed the simulation: {plain_first} != {first}")
    table = layer_metrics(
        recorder.spans, before, after, workload.rep_walls[0], plain_wall,
        first["core.delta_share"], workload.load_skew(),
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    sp.write_jsonl(recorder.spans, out_dir / f"trace-{name}.jsonl")
    return {
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in table.items()},
        "deterministic": first,
        "spans": len(recorder.spans),
        "traced_wall_s": workload.rep_walls[0],
        **accounting(workload),
    }


def accounting(workload: Workload) -> dict:
    return {
        "digest": workload.inputs.digest,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "reasons": workload.reasons[:10],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    env = environment()
    if args.trace:
        result = run_traced(args.workload, args.seed, args.smoke)
    else:
        reps = reps_for(args.workload, args.seconds, args.smoke)
        result = run_untraced(args.workload, args.seed, reps, args.smoke)
    result.update(workload=args.workload, seed=args.seed, trace=args.trace, env=env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
