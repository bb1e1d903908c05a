"""E-KERNEL: tau-only counting vs materialize-then-count on the vector kernel.

``tau(R_E)`` for every connected subset is the quantity C1-C4 and every
optimizer cost call consume.  ``Database`` can answer it two ways:

* **counting** -- :meth:`Database.tau_of`, which counts every connected
  acyclic subset with :func:`~repro.yannakakis.join.yannakakis_count`
  (the reducer's bottom-up sweep with weights, a column at a time)
  without materializing anything;
* **materialize, then count** -- ``len(Database.join_of(E))``, which
  builds every subset join on the vector kernel (memoized, so
  overlapping subsets share work) and takes its size.

Both run on fresh, unpinned databases built from the same seeded
generator, so they see identical tuples; the bench first checks that the
two paths agree on every count.  Databases are built *outside* the timed
region (this bench measures join work, not generation), and a fresh
``Database`` is used per timed run (the subset caches live on the
database; reusing one would time cache hits, not joins).

Results go to ``BENCH_perf.json`` at the repository root and
``benchmarks/results/E-KERNEL_join.txt``.  Counting must be >= 5x
faster than materializing on a full run; ``--quick`` times the same
workload in fewer rounds, so its payload stays comparable with the
committed baseline.  The CI perf-smoke job runs
``python benchmarks/bench_join_kernel.py --quick``, which fails if
counting is slower than materializing at all, and then the regression
sentinel over ``BENCH_perf.json``.
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # standalone-script entry
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.database import Database  # noqa: E402
from repro.report import Table  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    WorkloadSpec,
    chain_scheme,
    generate_database,
)

TAU_SPEC = dict(relations=6, size=40, domain=8)
ROUNDS_FULL = 5
ROUNDS_QUICK = 3

TAU_TARGET = 5.0


def _fresh_db(seed: int, spec: dict) -> Database:
    return generate_database(
        chain_scheme(spec["relations"]),
        random.Random(seed),
        WorkloadSpec(size=spec["size"], domain=spec["domain"]),
    )


def _count(db: Database, subsets) -> list:
    return [db.tau_of(subset) for subset in subsets]


def _materialize(db: Database, subsets) -> list:
    return [len(db.join_of(subset)) for subset in subsets]


def _bench_tau_only(spec: dict, rounds: int):
    """Median times of counting and of materializing every connected
    subset.  The two paths alternate within each round, so host drift
    hits both sides alike."""
    subsets = [
        frozenset(s.schemes) for s in _fresh_db(0, spec).scheme.connected_subsets()
    ]
    counted = _count(_fresh_db(0, spec), subsets)
    materialized = _materialize(_fresh_db(0, spec), subsets)
    assert counted == materialized, "tau-only counts disagree with join sizes"
    times = {_count: [], _materialize: []}
    for seed in range(rounds):
        for path, samples in times.items():
            db = _fresh_db(seed, spec)
            start = time.perf_counter()
            path(db, subsets)
            samples.append(time.perf_counter() - start)
    count_s = statistics.median(times[_count])
    materialize_s = statistics.median(times[_materialize])
    return count_s, materialize_s, len(subsets)


def run_benchmark(quick: bool = False) -> dict:
    rounds = ROUNDS_QUICK if quick else ROUNDS_FULL
    count_s, materialize_s, subset_count = _bench_tau_only(TAU_SPEC, rounds)
    return {
        "quick": quick,
        "tau_only": {
            "workload": "tau(R_E) for all {count} connected subsets of a "
            "{relations}-relation chain (size={size}, domain={domain})".format(
                count=subset_count, **TAU_SPEC
            ),
            "rounds": rounds,
            "connected_subsets": subset_count,
            "count_s": count_s,
            "materialize_s": materialize_s,
            "speedup": materialize_s / count_s,
            "target_speedup": TAU_TARGET,
        },
    }


def _render_table(payload: dict) -> Table:
    table = Table(
        ["path", "materialize (s)", "count (s)", "speedup", "target"],
        title="E-KERNEL: tau-only counting vs materialize-then-count",
    )
    entry = payload["tau_only"]
    table.add_row(
        "tau-only checks",
        f"{entry['materialize_s']:.4f}",
        f"{entry['count_s']:.4f}",
        f"{entry['speedup']:.1f}x",
        f">={entry['target_speedup']:.0f}x",
    )
    return table


def _write_json(payload: dict) -> None:
    (REPO_ROOT / "BENCH_perf.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_counting_beats_materializing(record):
    payload = run_benchmark(quick=False)
    _write_json(payload)
    record("E-KERNEL_join", _render_table(payload).render())
    assert payload["tau_only"]["speedup"] >= TAU_TARGET


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="tau-only counting vs materialize-then-count "
        "(writes BENCH_perf.json)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer rounds of the same workload; fail only if counting is "
        "slower than materializing (the CI perf-smoke contract)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(quick=args.quick)
    _write_json(payload)
    print(_render_table(payload).render())
    tau = payload["tau_only"]["speedup"]
    if args.quick:
        ok = tau >= 1.0
        verdict = "counting >= materializing" if ok else "COUNTING SLOWER"
    else:
        ok = tau >= TAU_TARGET
        verdict = (
            "target met"
            if ok
            else f"TARGET MISSED (tau {tau:.1f}x/{TAU_TARGET:.0f}x)"
        )
    print(f"\n{verdict}: tau-only {tau:.1f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
