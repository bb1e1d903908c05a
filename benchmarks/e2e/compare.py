"""Compare the end-to-end benchmark runs of two commits.

Each side is a set of result files written by ``run.py --out`` (or by
``run.py`` without ``--workload``), normally one file per seed with the
same seeds on both sides::

    python3 benchmarks/e2e/compare.py --base base/*.json --head head/*.json

For every workload and end-to-end metric it prints each side's median
and quartiles and one verdict, applying the bounds in ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, and not every head run is better than every base
  run;
* ``regressed`` / ``improved`` -- the head median is worse / better than
  the base median by more than the bound;
* ``ok`` -- otherwise.

``plan_tau`` has a bound of 0: any change of its median is a verdict.
``error_rate``, which is 0 on a correct run and so is not in
``BENCHMARK.json``, is compared seed by seed: a head run with more
failures than the base run of the same seed is a regression.  The exit
status is 1 when some pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics outside ``BENCHMARK.json`` whose every change counts; all are
#: better lower.
EXACT = {"error_rate": "fraction"}

Runs = Dict[str, Dict[str, List[Tuple[int, float]]]]


def load_runs(paths: Sequence[str]) -> Runs:
    """``{workload: {metric: [(seed, value) per run]}}`` over untraced
    records."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, record in document["workloads"].items():
            if record["trace"]:
                continue
            seed = record["seed"]
            for metric, value in record["metrics"].items():
                runs[workload][metric].append((seed, value["value"]))
            for metric in EXACT:
                runs[workload][metric].append((seed, record[metric]))
    return runs


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], head: Sequence[float], bound: float, better: str) -> str:
    """One bounded metric on one workload (rules in the module docstring)."""
    sign = 1 if better == "lower" else -1
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    spread = max((b3 - b1) / abs(bmed), (h3 - h1) / abs(hmed))
    if spread > bound:
        if max(sign * v for v in head) < min(sign * v for v in base):
            return "improved"
        return "unresolved"
    worse = sign * (hmed - bmed) / abs(bmed)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def exact_verdict(base: Sequence[Tuple[int, float]], head: Sequence[Tuple[int, float]]) -> str:
    """An exact, lower-is-better metric compared run by run on shared seeds."""
    before = dict(base)
    pairs = [(before[seed], value) for seed, value in head if seed in before]
    if not pairs:
        return "unresolved"
    if any(after > prior for prior, after in pairs):
        return "regressed"
    if any(after < prior for prior, after in pairs):
        return "improved"
    return "ok"


def compare(base_paths: Sequence[str], head_paths: Sequence[str]) -> List[dict]:
    """One row per workload and end-to-end metric."""
    spec = json.loads(BENCHMARK.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, head = load_runs(base_paths), load_runs(head_paths)
    rows = []
    for workload in sorted(set(base) & set(head)):
        for name in list(bounded) + list(EXACT):
            before, after = base[workload].get(name), head[workload].get(name)
            if not before or not after:
                continue
            if name in bounded:
                metric = bounded[name]
                unit, bound = metric["unit"], metric["bound"]
                result = verdict(
                    [v for _, v in before], [v for _, v in after], bound, metric["better"]
                )
            else:
                unit, bound = EXACT[name], 0.0
                result = exact_verdict(before, after)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": unit,
                "bound": bound,
                "base": quartiles([v for _, v in before]),
                "head": quartiles([v for _, v in after]),
                "verdict": result,
            })
    return rows


def _show(q) -> str:
    q1, median, q3 = q
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base commit")
    parser.add_argument("--head", nargs="+", required=True, help="result files of the head commit")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.head)
    print(
        f"{'workload':14s} {'metric':15s} {'base median [q1, q3]':>36s} "
        f"{'head median [q1, q3]':>36s} {'change':>8s} {'bound':>6s} verdict"
    )
    for row in rows:
        base_median, head_median = row["base"][1], row["head"][1]
        change = (head_median - base_median) / base_median if base_median else 0.0
        print(
            f"{row['workload']:14s} {row['metric']:15s} {_show(row['base']):>36s} "
            f"{_show(row['head']):>36s} {change:>+8.1%} {row['bound']:>6.2f} {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
