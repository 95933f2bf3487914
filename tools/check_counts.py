"""Compare the deterministic values of ``benchmarks/e2e/run.py --smoke
--out OUT`` sets with the committed baseline: ``python3
tools/check_counts.py BENCH_counts.json OUT [OUT ...] [--update KEY ...]``.

Per seed and workload the baseline holds the ``DETERMINISTIC`` keys, the
untraced ``sim_op_p50_us`` / ``sim_superstep_us`` and every traced
per-layer metric whose unit is ``count``, ``B`` or ``ratio`` (all but
``harness.*``, which measures the tracer).  Ints and strings compare
exactly, floats to ``rel=1e-9``; every moved key is printed with both
values.  A change that means to move a count names it: ``--update
traced/kernels.rows`` rewrites that key (shell-style patterns match too,
e.g. ``'traced/partition.*'``) in every seed and workload, leaves every
other key as committed, and still exits 1 while any unnamed key moved.
Say why in CHANGES.md.
"""

import fnmatch
import json
import math
import os
import sys


def counts_of(result_set: dict) -> dict:
    out = {}
    for name, runs in result_set["workloads"].items():
        row = {f"deterministic/{k}": v for k, v in runs["untraced"]["deterministic"].items()}
        for key in ("sim_op_p50_us", "sim_superstep_us"):
            row[f"untraced/{key}"] = runs["untraced"]["metrics"][key]["value"]
        for key, metric in runs["traced"]["metrics"].items():
            if metric["unit"] in ("count", "B", "ratio") and not key.startswith("harness."):
                row[f"traced/{key}"] = metric["value"]
        out[name] = row
    return out


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)
    return type(a) is type(b) and a == b


def main(argv) -> int:
    paths, named = argv, []
    if "--update" in argv:
        at = argv.index("--update")
        paths, named = argv[:at], argv[at + 1 :]
        if not named:
            print("check_counts: --update needs the key(s) that may move", file=sys.stderr)
            return 2
    if len(paths) < 2 or any(a.startswith("-") for a in paths + named):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = [path for path in paths if not os.path.isfile(path)]
    if missing:
        print(f"check_counts: no such file: {', '.join(missing)}", file=sys.stderr)
        return 2
    baseline_path, *out_paths = paths
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    moved = unnamed = 0
    for path in out_paths:
        with open(path) as fh:
            result_set = json.load(fh)
        seed, seen = f"seed {result_set['seed']}", counts_of(result_set)
        expected = baseline.setdefault(seed, {})
        for workload in sorted(set(seen) | set(expected)):
            was, now = expected.setdefault(workload, {}), seen.get(workload, {})
            for key in sorted(set(was) | set(now)):
                if key in was and key in now and same(was[key], now[key]):
                    continue
                moved += 1
                update = any(fnmatch.fnmatchcase(key, pattern) for pattern in named)
                print(
                    f"{seed} {workload} {key}: {was.get(key)!r} -> {now.get(key)!r}"
                    + (" (updated)" if update else "")
                )
                if not update:
                    unnamed += 1
                elif key in now:
                    was[key] = now[key]
                else:
                    del was[key]
    if named:
        with open(baseline_path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(
        f"{moved} value(s) moved against {baseline_path}"
        + (f", {moved - unnamed} named by --update and rewritten" if named else "")
    )
    return 1 if unnamed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
