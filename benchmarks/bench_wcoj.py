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

A third side on the triangle, cycle4 and clique5 legs, ``auto``, times
what a user gets: an unpinned ``JoinQuery``'s ``R_D`` build and
execution, planning untimed, as BENCH_yannakakis times its auto side.
The router builds ``R_D`` inside the DP's call for tau(R_D), with the
executor it picks from the plan's tau
(:class:`~repro.optimizer.route.CyclicDecision`), so the DP runs with a
cost source that times that one call, and the plan's execution, which
reads ``R_D`` back, is timed after it.  The DP's search over the other
subsets stays untimed: it is planning, and on the triangle it costs
about 0.1 ms, 15% of Generic Join's side.  ``auto_vs_best`` is the auto
time over the faster of the other two sides; full runs assert it stays
within ``AUTO_SLACK``.

Each round runs a leg's sides one after another, after a full
collection each, in an order that rotates from round to round; each
ratio is the median of its per-round ratios (:mod:`alternating`), so a
slow spell of the host hits both sides of a ratio alike.

Results go to ``BENCH_wcoj.json`` at the repository root and
``benchmarks/results/E-WCOJ_wcoj.txt``, both written by :func:`write`
from the script and the pytest entry alike.  CI's ``wcoj-smoke`` job
runs ``python benchmarks/bench_wcoj.py --quick`` and then the
regression sentinel over ``triangle.speedup`` / ``cycle4.speedup`` /
``clique5_count.speedup``.
"""

import argparse
import json
import os
import pathlib
import random
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # standalone-script entry
    sys.path.insert(0, str(REPO_ROOT / "src"))

import alternating  # noqa: E402
from repro.database import Database  # noqa: E402
from repro.optimizer.dp import optimize_dp  # noqa: E402
from repro.optimizer.spaces import SearchSpace  # noqa: E402
from repro.query import JoinQuery, Plan  # noqa: E402
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
AUTO_SLACK = 1.10  # auto over the faster side, every leg -- full runs
SIZE = 200  # tuples per relation in the spiked instances (2m+1 = 201)
ROUNDS_FULL = 11
ROUNDS_QUICK = 3
LEGS = ("triangle", "cycle4", "clique5")
RESULTS = REPO_ROOT / "benchmarks" / "results" / "E-WCOJ_wcoj.txt"
CLIQUE_SPEC_FULL = dict(size=120, domain=4, seed=11)
CLIQUE_SPEC_QUICK = dict(size=60, domain=4, seed=11)


def _visible_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _time_auto(relations) -> float:
    """An unpinned query's ``R_D`` build and execution: the DP's call
    for tau(R_D), in which the router builds ``R_D``, and then the
    plan's execution; the rest of the DP is planning, untimed."""
    query = JoinQuery(Database(relations))
    db = query.database
    whole = db.scheme.schemes
    built = 0.0

    def tau(key):
        nonlocal built
        if key != whole:
            return db.tau_of(key)
        start = time.perf_counter()
        answer = db.tau_of(key)
        built = time.perf_counter() - start
        return answer

    plan = Plan.from_result(optimize_dp(db, SearchSpace.ALL, subset_cost=tau))
    plan.provenance.routing = query.routing
    start = time.perf_counter()
    state = plan.execute()
    return built + time.perf_counter() - start, state


def _time_taus(relations, engine: str, subsets) -> tuple:
    """``tau_of`` over ``subsets`` on one cold database."""
    db = Database(relations, engine=engine)
    start = time.perf_counter()
    taus = [db.tau_of(subset) for subset in subsets]
    return time.perf_counter() - start, taus


def _bench_count(db: Database, rounds: int) -> dict:
    relations = db.relations()
    subsets = db.connected_subsets()
    runs = alternating.rounds(
        {engine: lambda engine=engine: _time_taus(relations, engine, subsets)
         for engine in ("vector", "wcoj")},
        rounds,
    )
    taus = {tuple(taus) for side in runs.values() for _, taus in side}
    assert len(taus) == 1, "clique5_count: the engines' taus differ"
    return {
        "relations": len(relations),
        "subsets": len(subsets),
        "tau_sum": sum(taus.pop()),
        "vector_seconds": alternating.median_seconds(runs, "vector"),
        "wcoj_seconds": alternating.median_seconds(runs, "wcoj"),
        "speedup": alternating.median_ratio(runs, "vector", "wcoj"),
    }


def _bench_workload(name: str, db: Database, rounds: int) -> dict:
    relations = db.relations()
    best = _best_binary_plan(relations)
    runs = alternating.rounds(
        {
            "binary": lambda: _time_binary(relations, best),
            "wcoj": lambda: _time_wcoj(relations),
            "auto": lambda: _time_auto(relations),
        },
        rounds,
    )
    reference = runs["binary"][0][1]._table()
    for side in runs.values():
        for _, state in side:
            assert (
                reference.order == state._table().order
                and reference.rows == state._table().rows
            ), f"{name}: a side diverged from the binary plan"
    cover = fractional_edge_cover(
        [rel.scheme for rel in relations], [len(rel) for rel in relations]
    )
    (decision,) = JoinQuery(Database(relations)).optimize().execution
    return {
        "relations": len(relations),
        "rows_per_relation": max(len(rel) for rel in relations),
        "tau": len(reference),
        "plan": best.strategy.describe(),
        "plan_tau": best.cost,
        "agm_bound": cover.bound,
        "auto_engine": decision.engine,
        "binary_seconds": alternating.median_seconds(runs, "binary"),
        "wcoj_seconds": alternating.median_seconds(runs, "wcoj"),
        "auto_seconds": alternating.median_seconds(runs, "auto"),
        "speedup": alternating.median_ratio(runs, "binary", "wcoj"),
        "auto_vs_best": alternating.median_ratio(runs, "auto", ("binary", "wcoj")),
    }


def run_benchmark(quick: bool = False) -> dict:
    rounds = ROUNDS_QUICK if quick else ROUNDS_FULL
    clique_spec = CLIQUE_SPEC_QUICK if quick else CLIQUE_SPEC_FULL
    payload = {
        "quick": quick,
        "cpu_count": _visible_cpus(),
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
    # This target does not depend on core count -- both sides are
    # sequential -- so it binds everywhere.
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
            "auto (s)",
            "auto runs",
            "auto/best",
        ],
        title="E-WCOJ: Generic Join vs. the executed best binary plan "
        f"(size={payload['size']}, {payload['cpu_count']} CPUs)",
    )
    for key in LEGS:
        entry = payload[key]
        table.add_row(
            key,
            entry["tau"],
            f"{entry['agm_bound']:.4g}",
            f"{entry['binary_seconds']:.4f}",
            f"{entry['wcoj_seconds']:.4f}",
            f"{entry['speedup']:.2f}x",
            f"{entry['auto_seconds']:.4f}",
            entry["auto_engine"],
            f"{entry['auto_vs_best']:.2f}",
        )
    entry = payload["clique5_count"]
    table.add_row(
        f"clique5 tau_of ({entry['subsets']} subsets)",
        entry["tau_sum"],
        "-",
        f"{entry['vector_seconds']:.4f}",
        f"{entry['wcoj_seconds']:.4f}",
        f"{entry['speedup']:.2f}x",
        "-",
        "-",
        "-",
    )
    return table


def _misses(payload: dict) -> list:
    """The enforced targets this payload misses, as messages: the
    triangle speedup and the clique5 count always, and auto's slack on
    every leg of a full run."""
    misses = []
    speedup = payload["triangle"]["speedup"]
    if speedup < SPEEDUP_TARGET:
        misses.append(
            f"{speedup:.2f}x < {SPEEDUP_TARGET:.0f}x on the triangle"
        )
    count = payload["clique5_count"]["speedup"]
    if count < COUNT_FLOOR:
        misses.append(f"{count:.2f}x < {COUNT_FLOOR:.0f}x counting clique5")
    if not payload["quick"]:
        for key in LEGS:
            ratio = payload[key]["auto_vs_best"]
            if ratio > AUTO_SLACK:
                misses.append(f"auto at {ratio:.2f}x the faster side on {key}")
    return misses


def write(payload: dict) -> None:
    """Write ``BENCH_wcoj.json`` and the E-WCOJ results table."""
    (REPO_ROOT / "BENCH_wcoj.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    RESULTS.write_text(_render_table(payload).render() + "\n")


def test_wcoj_speedup():
    payload = run_benchmark(quick=False)
    write(payload)
    # Byte identity was asserted inside every leg; the speedup floors
    # bind on the triangle and the clique5 count, auto's slack on every
    # leg (see the module docstring).
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
        "are still asserted, auto's slack is not (the CI wcoj-smoke contract)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(quick=args.quick)
    write(payload)
    print(_render_table(payload).render())
    misses = _misses(payload)
    verdict = f"TARGET MISSED ({'; '.join(misses)})" if misses else "targets met"
    print(
        f"\n{verdict}: "
        + ", ".join(
            f"{key} {payload[key]['speedup']:.2f}x (auto/best "
            f"{payload[key]['auto_vs_best']:.2f})"
            for key in LEGS
        )
        + f", clique5 count {payload['clique5_count']['speedup']:.2f}x"
    )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
