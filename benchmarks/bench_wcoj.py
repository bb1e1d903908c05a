"""E-WCOJ: Generic Join vs. the best binary strategy on cyclic schemes.

The AGM bound separates cyclic queries from everything this library's
binary pipeline can do: on the spiked cycle instances
(:func:`~repro.workloads.generators.generate_spiked_cycle`) *every*
first binary join step -- adjacent pair or Cartesian product -- pays a
quadratic intermediate, while the output (and Generic Join's work) stays
linear.  This benchmark measures exactly that gap:

* **triangle** -- the 3-cycle spike at size 200 (the canonical AGM
  lower-bound family).  The acceptance target is ``>= 3x`` over the best
  binary strategy, enforced wherever the benchmark runs (both engines
  are single-process and CPU-bound, so the ratio is machine-relative).
* **cycle4** -- the 4-cycle spike at size 200.  On *even* cycles the
  spike's output is itself quadratic (two opposite coordinates can be
  nonzero simultaneously), so the best binary plan's intermediates are
  already output-sized and theory promises no separation: whatever the
  kernel gains here is constant-factor, and the sentinel guards the
  measured ratio against *relative* regression, not a floor.
* **clique5** -- a uniform-random 5-clique (10 shared attributes);
  recorded for the trend, not gated: like the even cycle, matchings in
  the clique keep the output within a constant of the binary
  intermediates, so there is no asymptotic separation to enforce.
* **clique5_count** -- the statistics the subset DP asks for: ``tau_of``
  over every connected subset of the full-size clique5, on a cold
  ``wcoj`` database against a cold ``vector`` one.  The vector engine
  materializes each cyclic subset's join to take its length; the wcoj
  engine counts every proper one with ``generic_count`` and joins only
  the whole database.  Both sides must report the same taus, and the
  count must not lose: ``>= 1x`` is enforced wherever the benchmark
  runs.  ``--quick`` times the same full-size instance (fewer rounds),
  so its ratio stays comparable to the committed baseline.

On every workload and every round the Generic-Join result is asserted
**byte-identical** to the binary plan's (same frozenset of interned id
rows, same column order).  The *best* binary strategy is found by the
subset DP over the full space on true sizes -- the strongest opponent
the binary engine has -- and its wall time is one ``Plan.execute()`` on
a cold vector-engine database: each step joins its children's states,
so the plan makes exactly its tau in tuples.

Results go to ``BENCH_wcoj.json`` at the repository root and
``benchmarks/results/E-WCOJ_wcoj.txt``.  CI's ``wcoj-smoke`` job runs
``python benchmarks/bench_wcoj.py --quick`` and then the regression
sentinel over ``triangle.speedup`` / ``cycle4.speedup`` /
``clique5_count.speedup``.
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
from repro.optimizer.dp import optimize_dp  # noqa: E402
from repro.optimizer.spaces import SearchSpace  # noqa: E402
from repro.parallel import visible_cpus  # noqa: E402
from repro.query import Plan  # noqa: E402
from repro.strategy.tree import parse_strategy  # noqa: E402
from repro.report import Table  # noqa: E402
from repro.wcoj import fractional_edge_cover  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    WorkloadSpec,
    clique_scheme,
    generate_database,
    generate_spiked_cycle,
)

SPEEDUP_TARGET = 3.0  # triangle, at SIZE -- enforced everywhere
COUNT_FLOOR = 1.0  # clique5_count -- enforced everywhere
SIZE = 200  # tuples per relation in the spiked instances (2m+1 = 201)
ROUNDS_FULL = 5
ROUNDS_QUICK = 3
CLIQUE_SPEC_FULL = dict(size=120, domain=4, seed=11)
CLIQUE_SPEC_QUICK = dict(size=60, domain=4, seed=11)


def _clique5(spec: dict) -> Database:
    rng = random.Random(spec["seed"])
    return generate_database(
        clique_scheme(5),
        rng,
        WorkloadSpec(size=spec["size"], domain=spec["domain"]),
    )


def _best_binary_plan(relations):
    """The cheapest binary strategy over the full space, on true sizes."""
    planner = Database(relations, engine="vector")
    return optimize_dp(planner, SearchSpace.ALL)


def _time_binary(relations, best) -> float:
    """Execute the plan on a cold vector-engine database."""
    executor = Database(relations, engine="vector")
    plan = Plan(
        parse_strategy(executor, best.strategy.describe()), best.cost,
        SearchSpace.ALL, best.optimizer,
    )
    executor.scheme.subset_index()  # planning builds it on a user's path
    start = time.perf_counter()
    state = plan.execute()
    return time.perf_counter() - start, state


def _time_wcoj(relations) -> float:
    """One cold generic-join evaluation (trie build included)."""
    executor = Database(relations, engine="wcoj")
    executor.scheme.subset_index()  # planning builds it on a user's path
    start = time.perf_counter()
    state = executor.evaluate()
    return time.perf_counter() - start, state


def _time_taus(relations, engine: str, subsets) -> tuple:
    """``tau_of`` over ``subsets`` on one cold database."""
    db = Database(relations, engine=engine)
    start = time.perf_counter()
    taus = [db.tau_of(subset) for subset in subsets]
    return time.perf_counter() - start, taus


def _bench_count(db: Database, rounds: int) -> dict:
    relations = db.relations()
    subsets = db.connected_subsets()
    vector_times, wcoj_times = [], []
    for _ in range(rounds):
        seconds, vector_taus = _time_taus(relations, "vector", subsets)
        vector_times.append(seconds)
        seconds, wcoj_taus = _time_taus(relations, "wcoj", subsets)
        wcoj_times.append(seconds)
        assert wcoj_taus == vector_taus, "clique5_count: the engines' taus differ"
    vector_s = statistics.median(vector_times)
    wcoj_s = statistics.median(wcoj_times)
    return {
        "relations": len(relations),
        "subsets": len(subsets),
        "tau_sum": sum(wcoj_taus),
        "vector_seconds": vector_s,
        "wcoj_seconds": wcoj_s,
        "speedup": vector_s / wcoj_s,
    }


def _bench_workload(name: str, db: Database, rounds: int) -> dict:
    relations = db.relations()
    best = _best_binary_plan(relations)
    binary_times, wcoj_times = [], []
    for _ in range(rounds):
        seconds, binary_state = _time_binary(relations, best)
        binary_times.append(seconds)
        seconds, wcoj_state = _time_wcoj(relations)
        wcoj_times.append(seconds)
        assert (
            binary_state._table().order == wcoj_state._table().order
            and binary_state._table().rows == wcoj_state._table().rows
        ), f"{name}: generic join diverged from the binary plan"
    cover = fractional_edge_cover(
        [rel.scheme for rel in relations], [len(rel) for rel in relations]
    )
    binary_s = statistics.median(binary_times)
    wcoj_s = statistics.median(wcoj_times)
    return {
        "relations": len(relations),
        "rows_per_relation": max(len(rel) for rel in relations),
        "tau": len(wcoj_state),
        "plan": best.strategy.describe(),
        "plan_tau": best.cost,
        "agm_bound": cover.bound,
        "binary_seconds": binary_s,
        "wcoj_seconds": wcoj_s,
        "speedup": binary_s / wcoj_s,
    }


def run_benchmark(quick: bool = False) -> dict:
    rounds = ROUNDS_QUICK if quick else ROUNDS_FULL
    clique_spec = CLIQUE_SPEC_QUICK if quick else CLIQUE_SPEC_FULL
    payload = {
        "quick": quick,
        "cpu_count": visible_cpus(),
        "rounds": rounds,
        "size": SIZE,
        "speedup_target_triangle": SPEEDUP_TARGET,
        "triangle": _bench_workload(
            "triangle", generate_spiked_cycle(3, SIZE), rounds
        ),
        "cycle4": _bench_workload(
            "cycle4", generate_spiked_cycle(4, SIZE), rounds
        ),
        "clique5": _bench_workload("clique5", _clique5(clique_spec), rounds),
        "clique5_count": _bench_count(_clique5(CLIQUE_SPEC_FULL), rounds),
    }
    # Unlike the parallel curves, this target does not depend on core
    # count -- both sides are sequential -- so it binds everywhere.
    payload["speedup_check"] = "enforced"
    return payload


def _render_table(payload: dict) -> Table:
    table = Table(
        [
            "workload",
            "tau",
            "AGM bound",
            "plan (s)",
            "wcoj (s)",
            "speedup",
        ],
        title="E-WCOJ: Generic Join vs. the executed best binary plan "
        f"(size={payload['size']}, {payload['cpu_count']} CPUs)",
    )
    for key in ("triangle", "cycle4", "clique5"):
        entry = payload[key]
        table.add_row(
            key,
            entry["tau"],
            f"{entry['agm_bound']:.4g}",
            f"{entry['binary_seconds']:.4f}",
            f"{entry['wcoj_seconds']:.4f}",
            f"{entry['speedup']:.2f}x",
        )
    entry = payload["clique5_count"]
    table.add_row(
        f"clique5 tau_of ({entry['subsets']} subsets)",
        entry["tau_sum"],
        "-",
        f"{entry['vector_seconds']:.4f}",
        f"{entry['wcoj_seconds']:.4f}",
        f"{entry['speedup']:.2f}x",
    )
    return table


def _misses(payload: dict) -> list:
    """The enforced targets this payload misses, as messages."""
    misses = []
    speedup = payload["triangle"]["speedup"]
    if speedup < SPEEDUP_TARGET:
        misses.append(
            f"{speedup:.2f}x < {SPEEDUP_TARGET:.0f}x on the triangle"
        )
    count = payload["clique5_count"]["speedup"]
    if count < COUNT_FLOOR:
        misses.append(f"{count:.2f}x < {COUNT_FLOOR:.0f}x counting clique5")
    return misses


def _write_json(payload: dict) -> None:
    (REPO_ROOT / "BENCH_wcoj.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_wcoj_speedup(record):
    payload = run_benchmark(quick=False)
    _write_json(payload)
    record("E-WCOJ_wcoj", _render_table(payload).render())
    # Byte identity was asserted inside every leg; the speedup floors
    # bind on the triangle and the clique5 count (see the module
    # docstring).
    assert not _misses(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generic Join vs. best binary strategy on cyclic "
        "schemes (writes BENCH_wcoj.json)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer rounds and a smaller materializing clique5; byte "
        "identity, the triangle speedup target and the clique5 count floor "
        "are still asserted (the CI wcoj-smoke contract)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(quick=args.quick)
    _write_json(payload)
    print(_render_table(payload).render())
    misses = _misses(payload)
    verdict = f"TARGET MISSED ({'; '.join(misses)})" if misses else "targets met"
    print(
        f"\n{verdict}: triangle {payload['triangle']['speedup']:.2f}x, "
        f"cycle4 {payload['cycle4']['speedup']:.2f}x, "
        f"clique5 {payload['clique5']['speedup']:.2f}x, "
        f"clique5 count {payload['clique5_count']['speedup']:.2f}x"
    )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
