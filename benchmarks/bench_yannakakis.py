"""E-YAN: the Yannakakis full reducer vs. the best binary strategy on
acyclic schemes.

The binary pipeline is provably fine on acyclic schemes *when the output
is large* -- a join tree gives an order whose intermediates stay within
input + output.  The separation lives in *selective* acyclic instances:
on the selective star
(:func:`~repro.workloads.generators.generate_selective_star`) every
binary first step -- hub against either satellite, or the satellites'
Cartesian product -- pays a quadratic intermediate while the full output
is exactly one tuple.  The Yannakakis full reducer semijoins every state
down to the survivor row in linear time before any join runs.  This
benchmark measures exactly that gap:

* **selective_star** -- the 3-relation selective star at size 301
  (``m = 300`` doomed rows per block).  The acceptance target is
  ``>= 3x`` over the best binary strategy, enforced wherever the
  benchmark runs (both engines are single-process and CPU-bound, so the
  ratio is machine-relative).
* **star4** -- a uniform-random 4-relation star.  Random data has no
  selective interaction: the output is intermediate-sized, the binary
  join-tree order is already near-optimal, and rough parity (the
  reducer's semijoin sweeps are pure overhead here) is the expected,
  honest result -- the sentinel guards the measured ratio against
  *relative* regression, not a floor.
* **fk_chain** -- a 6-relation foreign-key chain where every shared
  attribute keys the deeper side.  Binary FK joins only ever shrink,
  so the plan is expected to win and the reducer's sweeps are
  overhead; recorded for the trend, not gated.

On every workload and every round the Yannakakis result is asserted
**byte-identical** to the binary plan's (same frozenset of interned id
rows, same column order).  The *best* binary strategy is found by the
subset DP over the full space on true sizes -- the strongest opponent
the binary engine has -- and its wall time is one ``Plan.execute()`` on
a cold vector-engine database: each step joins its children's states,
so the plan makes exactly its tau in tuples.

A third side, ``auto``, times what a user gets: an unpinned
``JoinQuery``'s plan, executed (routing and planning untimed), where
the router runs the kernel on a component only when the plan's tau says
it wins (:data:`~repro.optimizer.route.RHO_STAR`).  ``auto_vs_best`` is
its time over the faster of the other two; full runs assert it stays
within ``AUTO_SLACK``.

Each round runs a leg's sides one after another, after a full
collection each, in an order that rotates from round to round; each
ratio is the median of its per-round ratios (:mod:`alternating`), so a
slow spell of the host hits both sides of a ratio alike.

Results go to ``BENCH_yannakakis.json`` at the repository root and
``benchmarks/results/E-YAN_yannakakis.txt``, both written by
:func:`write` from the script and the pytest entry alike.  CI's ``yannakakis-smoke``
job runs ``python benchmarks/bench_yannakakis.py --quick`` and then the
regression sentinel over ``selective_star.speedup`` / ``star4.speedup``.
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
from repro.workloads.generators import (  # noqa: E402
    WorkloadSpec,
    generate_database,
    generate_foreign_key_chain,
    generate_selective_star,
    star_scheme,
)

SPEEDUP_TARGET = 3.0  # selective_star, at SIZE -- enforced everywhere
AUTO_SLACK = 1.10  # auto over the faster side, every leg -- full runs
SIZE = 301  # tuples per satellite (m = 300 doomed rows per hub block)
# Quick runs take as many rounds as full ones, about a second more: with
# the median of three per-round ratios one slow spell could sink a gated
# leg, and 2 of 50 quick runs fell under the sentinel's floor
# (selective_star, whose kernel side lasts under half a millisecond, and
# star4); 1 of 50 still did at 11 rounds, and none at 21.
ROUNDS = 21
STAR4_SPEC_FULL = dict(size=120, domain=4, seed=17)
STAR4_SPEC_QUICK = dict(size=60, domain=4, seed=17)
FK_CHAIN_SPEC = dict(n=6, size=400, seed=23)
LEGS = ("selective_star", "star4", "fk_chain")
RESULTS = REPO_ROOT / "benchmarks" / "results" / "E-YAN_yannakakis.txt"


def _visible_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _star4(spec: dict) -> Database:
    rng = random.Random(spec["seed"])
    return generate_database(
        star_scheme(4),
        rng,
        WorkloadSpec(size=spec["size"], domain=spec["domain"]),
    )


def _fk_chain(spec: dict) -> Database:
    rng = random.Random(spec["seed"])
    return generate_foreign_key_chain(spec["n"], rng, size=spec["size"])


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


def _time_auto(relations) -> float:
    """Execute an unpinned query's plan (routing and planning untimed)."""
    query = JoinQuery(Database(relations))
    plan = query.optimize()
    start = time.perf_counter()
    state = query.execute(plan)
    return time.perf_counter() - start, state


def _time_yannakakis(relations) -> float:
    """One cold full-reducer evaluation (semijoin sweeps included)."""
    executor = Database(relations, engine="yannakakis")
    executor.scheme.subset_index()  # planning builds it on a user's path
    start = time.perf_counter()
    state = executor.evaluate()
    return time.perf_counter() - start, state


def _bench_workload(name: str, db: Database, rounds: int) -> dict:
    relations = db.relations()
    best = _best_binary_plan(relations)
    runs = alternating.rounds(
        {
            "binary": lambda: _time_binary(relations, best),
            "yannakakis": lambda: _time_yannakakis(relations),
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
    return {
        "relations": len(relations),
        "rows_per_relation": max(len(rel) for rel in relations),
        "tau": len(reference),
        "plan": best.strategy.describe(),
        "plan_tau": best.cost,
        "binary_seconds": alternating.median_seconds(runs, "binary"),
        "yannakakis_seconds": alternating.median_seconds(runs, "yannakakis"),
        "auto_seconds": alternating.median_seconds(runs, "auto"),
        "speedup": alternating.median_ratio(runs, "binary", "yannakakis"),
        "auto_vs_best": alternating.median_ratio(runs, "auto", ("binary", "yannakakis")),
    }


def run_benchmark(quick: bool = False) -> dict:
    star4_spec = STAR4_SPEC_QUICK if quick else STAR4_SPEC_FULL
    payload = {
        "quick": quick,
        "cpu_count": _visible_cpus(),
        "rounds": ROUNDS,
        "size": SIZE,
        "speedup_target_selective_star": SPEEDUP_TARGET,
        "selective_star": _bench_workload(
            "selective_star", generate_selective_star(3, SIZE), ROUNDS
        ),
        "star4": _bench_workload("star4", _star4(star4_spec), ROUNDS),
        "fk_chain": _bench_workload("fk_chain", _fk_chain(FK_CHAIN_SPEC), ROUNDS),
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
            "plan (s)",
            "yannakakis (s)",
            "speedup",
            "auto (s)",
            "auto/best",
        ],
        title="E-YAN: Yannakakis full reducer vs. the executed best binary plan "
        f"(size={payload['size']}, {payload['cpu_count']} CPUs)",
    )
    for key in LEGS:
        entry = payload[key]
        table.add_row(
            key,
            entry["tau"],
            f"{entry['binary_seconds']:.4f}",
            f"{entry['yannakakis_seconds']:.4f}",
            f"{entry['speedup']:.2f}x",
            f"{entry['auto_seconds']:.4f}",
            f"{entry['auto_vs_best']:.2f}",
        )
    return table


def _misses(payload: dict) -> list:
    """The targets a payload misses: the selective-star speedup always,
    and auto's slack on every leg of a full run."""
    misses = []
    speedup = payload["selective_star"]["speedup"]
    if speedup < SPEEDUP_TARGET:
        misses.append(
            f"{speedup:.2f}x < {SPEEDUP_TARGET:.0f}x on the selective star"
        )
    if not payload["quick"]:
        for key in LEGS:
            ratio = payload[key]["auto_vs_best"]
            if ratio > AUTO_SLACK:
                misses.append(f"auto at {ratio:.2f}x the faster side on {key}")
    return misses


def write(payload: dict) -> None:
    """Write ``BENCH_yannakakis.json`` and the E-YAN results table."""
    (REPO_ROOT / "BENCH_yannakakis.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    RESULTS.write_text(_render_table(payload).render() + "\n")


def test_yannakakis_speedup():
    payload = run_benchmark(quick=False)
    write(payload)
    # Byte identity was asserted inside every leg; the speedup floor
    # binds only on the selective star (see the module docstring).
    assert not _misses(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Yannakakis full reducer vs. best binary strategy on "
        "acyclic schemes (writes BENCH_yannakakis.json)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="a smaller star4; byte identity and the "
        "selective-star speedup target are still asserted, auto's slack "
        "is not (the CI yannakakis-smoke contract)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(quick=args.quick)
    write(payload)
    print(_render_table(payload).render())
    misses = _misses(payload)
    verdict = "targets met" if not misses else "TARGET MISSED (" + "; ".join(misses) + ")"
    print(
        f"\n{verdict}: "
        + ", ".join(
            f"{key} {payload[key]['speedup']:.2f}x (auto/best "
            f"{payload[key]['auto_vs_best']:.2f})"
            for key in LEGS
        )
    )
    return 0 if not misses else 1


if __name__ == "__main__":
    sys.exit(main())
