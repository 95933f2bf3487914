"""Compare two saved sets: ``python3 benchmarks/e2e/compare.py A.json B.json``.

For every workload and end-to-end metric prints base, new, new/base and
one verdict, each workload in its own rows:

* ``improved`` / ``worse``  — the median moved the good / bad way by more
  than the metric's bound;
* ``within bound``          — it did not;
* ``unresolved``            — the runs inside either set spread wider than
  the bound, so the sets cannot settle it;
* ``identical`` / ``differs`` — for sim-clock metrics when both sets ran
  the same inputs on the same commit, where any difference is a bug.

Exits non-zero on any ``worse``, ``unresolved`` or ``differs`` row, or
when a workload's failure share went up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.specs import END_TO_END, EXTRA  # noqa: E402

BAD = ("worse", "unresolved", "differs")


def spread(samples: Optional[List[float]]) -> float:
    """Interquartile range over the median of a set's runs (with three
    runs, their whole range); 0 when there is a single run."""
    if not samples or len(samples) < 2 or not statistics.median(samples):
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(
    base: float, new: float, better: str, bound: float,
    base_spread: float = 0.0, new_spread: float = 0.0, exact: bool = False,
) -> str:
    if exact:
        return "identical" if new == base else "differs"
    if max(base_spread, new_spread) > bound:
        return "unresolved"
    change = (new - base) / base if base else 0.0
    gain = -change if better == "lower" else change
    if gain > bound:
        return "improved"
    return "worse" if gain < -bound else "within bound"


def failure_share(result: dict) -> float:
    return result["failed"] / max(result["attempted"], 1)


def compare(base_set: dict, new_set: dict) -> Tuple[List[str], bool]:
    lines, ok = [], True
    for name, base_pair in base_set["workloads"].items():
        base, new = base_pair["untraced"], new_set["workloads"][name]["untraced"]
        same_run = (
            base["digest"] == new["digest"]
            and base["env"]["git_sha"] is not None
            and base["env"]["git_sha"] == new["env"]["git_sha"]
        )
        lines.append(f"== {name}" + ("  (same inputs, same commit)" if same_run else ""))
        base_values = {**base["metrics"], **base["extra"]}
        new_values = {**new["metrics"], **new["extra"]}
        for metric, _, better, bound, _ in END_TO_END + EXTRA:
            b, n = base_values.get(metric), new_values.get(metric)
            if b is None or n is None:
                continue
            v = verdict(
                b["value"], n["value"], better, bound,
                spread(base["samples"].get(metric)), spread(new["samples"].get(metric)),
                exact=same_run and metric.startswith("sim_"),
            )
            ok = ok and v not in BAD
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            lines.append(
                f"   {metric:<22} {b['value']:>16.4f} {n['value']:>16.4f} {b['unit']:<6}"
                f" x{ratio:<8.4f} bound {bound:.0%}  {v}"
            )
        fb, fn = failure_share(base), failure_share(new)
        lines.append(f"   failure share          {fb:>16.6f} {fn:>16.6f}")
        if fn > fb:
            lines.append("   worse: a higher share of operations failed")
            ok = False
        if same_run and base["deterministic"] != new["deterministic"]:
            lines.append("   differs: deterministic counts are not equal")
            ok = False
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines, ok = compare(json.loads(Path(args.base).read_text()), json.loads(Path(args.new).read_text()))
    print("\n".join(lines))
    print("ok: no row worse, unresolved or differing" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
