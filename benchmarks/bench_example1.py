"""E-EX1: Example 1 (paper, Section 3).

Regenerates the example's published arithmetic: tau(R1 ⋈ R2) = 10, the
three CP-avoiding strategies cost 570 / 570 / 549, the CP-using S4 costs
546, C1 holds, and therefore no CP-avoiding strategy is tau-optimum.
Each strategy is also executed as a hand-written plan on a fresh
database, and the tuples its steps produce must equal its cost.
"""

import repro.obs as obs
from repro.conditions.checks import check_c1, check_c2
from repro.obs.metrics import get_registry
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery
from repro.report import Table
from repro.strategy.cost import tau_cost
from repro.strategy.enumerate import nocp_strategies
from repro.strategy.tree import parse_strategy
from repro.workloads.paper import example1

PAPER_ROWS = [
    ("(((R1 R2) R3) R4)", 570),
    ("(((R1 R2) R4) R3)", 570),
    ("((R1 R2) (R3 R4))", 549),
    ("((R1 R3) (R2 R4))", 546),
]


def _executed_tau(text: str) -> int:
    """The tuples the steps of ``text`` produce, executed as a manual
    plan on a fresh Example 1 database."""
    plan = JoinQuery(example1()).plan_from_text(text)
    with obs.observed():
        counter = get_registry().counter("join.output_tuples")
        before = sum(counter.series().values())
        plan.execute()
        produced = sum(counter.series().values()) - before
    obs.get_tracer().clear()
    return produced


def test_example1_published_costs(record, benchmark):
    db = example1()

    def costs():
        return [tau_cost(parse_strategy(db, text)) for text, _ in PAPER_ROWS]

    measured = benchmark(costs)
    expected = [cost for _, cost in PAPER_ROWS]
    assert measured == expected
    executed = [_executed_tau(text) for text, _ in PAPER_ROWS]
    assert executed == expected

    table = Table(
        ["strategy", "paper tau", "measured tau", "executed tau", "avoids CP"],
        title="E-EX1: Example 1 strategy costs",
    )
    for (text, paper_cost), ours, ran in zip(PAPER_ROWS, measured, executed):
        s = parse_strategy(db, text)
        table.add_row(
            s.describe(), paper_cost, ours, ran, s.avoids_cartesian_products()
        )
    record("E-EX1_example1", table.render())


def test_example1_c1_holds_but_optimum_uses_cp(benchmark):
    db = example1()

    def verdicts():
        return (
            bool(check_c1(db)),
            bool(check_c2(db)),
            optimize_exhaustive(db).cost,
            optimize_exhaustive(db, SearchSpace.NOCP).cost,
        )

    c1, c2, optimum, nocp_best = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    assert c1  # the paper: "One can verify that this database satisfies C1"
    assert not c2  # Example 2, first half
    assert optimum <= 546
    assert nocp_best == 549
    assert optimum < nocp_best  # the CP-avoiding subspace misses the optimum


def test_example1_exactly_three_avoiding_strategies(benchmark):
    db = example1()
    strategies = benchmark(lambda: list(nocp_strategies(db)))
    assert len(strategies) == 3
    assert {tau_cost(s) for s in strategies} == {570, 549}
