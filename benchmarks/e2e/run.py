"""The end-to-end benchmark: ``python3 benchmarks/e2e/run.py``.

Two ways in, one measurement underneath (``child.py``):

* the driver's contract: ``--workload W --seed N --seconds S --trace 0|1``
  runs one workload in a fresh child interpreter and prints, as the last
  line, ``{"correct", "attempted", "failed", "metrics"}`` with every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``);
* a full set: with no ``--workload``, all four workloads run untraced
  (three times each: a set's value is the median, so one slow process
  does not decide a comparison) and then traced, every metric is printed
  by name with unit and sample count, all runs of the seed must agree on
  every deterministic value, and ``--out FILE`` saves the set for
  ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.specs import (  # noqa: E402
    DETERMINISTIC, END_TO_END, LAYERS, RUN_SECONDS, WORKLOADS,
)

CHILD_TIMEOUT_S = 170  # the driver allows a run 180 s
SET_RUNS = 3  # untraced runs per workload in a full set


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One workload in its own interpreter, one thread; raises if it
    fails, so no result is printed for a run that did not finish."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_KERNELS", None)  # the benchmark measures the default backend
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_line(result: dict) -> str:
    """The driver's last line: only the keys and fields it names."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()
        },
    })


def print_end_to_end(result: dict) -> None:
    name = result["workload"]
    spec = WORKLOADS[name]
    print(f"\n== {name}  seed {result['seed']}  inputs {result['digest']}  "
          f"measured {result['measured_s']:.1f} s"
          + (f"  median of {result['runs']} runs" if result.get("runs", 1) > 1 else "")
          + ("  [noisy: load above core count]" if result["env"]["noisy"] else ""))
    print(f"   operation: {spec['op']}")
    print(f"   work:      {spec['work']}")
    print(f"   sim op:    {spec['sim_op']}")
    for metric, m in {**result["metrics"], **result["extra"]}.items():
        count = f"n={m['n']}" if "n" in m else ""
        print(f"   {metric:<22} {m['value']:>16.4f} {m['unit']:<6} {count}")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}")
    for reason in result["reasons"]:
        print(f"   FAILED: {reason}")


def print_layers(result: dict) -> None:
    metrics = result["metrics"]
    total = result["traced_wall_s"]
    shares = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    print(f"\n== {result['workload']} traced: {total:.3f} s, {result['spans']} spans, "
          f"overhead x{metrics['harness.trace_overhead_ratio']['value']:.2f}, "
          f"sum of self_s {sum(shares.values()):.3f} s")
    for layer in sorted(LAYERS, key=lambda x: -shares[x]):
        counts = "  ".join(
            f"{key.split('.')[-1]}={m['value']:g}"
            for key, m in metrics.items()
            if key.rsplit(".", 1)[0] == layer and not key.endswith(".self_s")
        )
        print(f"   {layer:<18} {shares[layer]:>8.3f} s {100 * shares[layer] / total:>5.1f} %  {counts}")


def median_of(runs: list) -> dict:
    """The first run with every metric's value replaced by the median
    over all runs; the per-run values are kept as ``samples``."""
    merged = dict(runs[0], samples={}, runs=len(runs), failed=max(r["failed"] for r in runs))
    for group in ("metrics", "extra"):
        merged[group] = {name: dict(m) for name, m in runs[0][group].items()}
        for name, m in merged[group].items():
            values = [r[group][name]["value"] for r in runs]
            m["value"] = statistics.median(values)
            merged["samples"][name] = values
    return merged


def full_set(seed: int, seconds: float, smoke: bool, out: str | None) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        runs = [run_child(name, seed, seconds, 0, smoke) for _ in range(1 if smoke else SET_RUNS)]
        plain = median_of(runs)
        print_end_to_end(plain)
        traced = run_child(name, seed, seconds, 1, smoke)
        print_layers(traced)
        mismatched = [
            key for key in DETERMINISTIC
            if any(r["deterministic"][key] != traced["deterministic"][key] for r in runs)
        ]
        if mismatched:
            print(f"   NOT DETERMINISTIC: runs of seed {seed} differ on {mismatched}")
            status = 1
        reconciled = sum(traced["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
        if abs(reconciled - traced["traced_wall_s"]) > 0.02 * traced["traced_wall_s"]:
            print(f"   DOES NOT RECONCILE: self times sum to {reconciled:.3f} s")
            status = 1
        if plain["failed"] or traced["failed"]:
            status = 1
        results[name] = {"untraced": plain, "traced": traced}
    if out:
        Path(out).write_text(json.dumps({"seed": seed, "smoke": smoke, "workloads": results}, indent=1))
    print(f"\n{'FAILED' if status else 'ok'}: {len(results)} workloads, "
          f"{len(END_TO_END)} end-to-end metrics each")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload, driver output")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    parser.add_argument("--out", help="full set only: save the results here for compare.py")
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return full_set(args.seed, args.seconds, args.smoke, args.out)
        result = run_child(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed, no result: {exc}", file=sys.stderr)
        return 1
    (print_layers if args.trace else print_end_to_end)(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
