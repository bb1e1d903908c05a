"""``Plan.execute`` runs the plan it explains, checked against the
nested-loop oracle.

Random databases are chains, stars, random trees and unions of two of
them (unconnected schemes), with empty and single-row relations; plans
come from the DP in all four spaces, greedy, IKKBZ on tree query graphs,
and random hand-written strategies.  On every engine the result must be
the oracle's join.  Where every component executes binary, the steps
must produce exactly ``plan.cost`` tuples during the first ``execute()``
and none during a second, and afterwards every step's tau must be a
join-memo hit.  A component the Yannakakis kernel executes must give
the same bytes as the binary execution of the same strategy.

The pins fix the execution decision and its ratio rho on the instances
it was calibrated on, and executed tau on the paper's examples.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.optimizer.route import RHO_STAR
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery
from repro.relational.attributes import AttributeSet
from repro.relational.relation import Relation
from repro.strategy.sampling import sample_strategy
from repro.workloads import paper
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    generate_database,
    generate_foreign_key_chain,
    generate_selective_star,
    random_tree_scheme,
    star_scheme,
)
from tests import oracle

#: Rows drawn per relation (before duplicates collapse).
_SIZES = (0, 1, 3, 6)


def _shape(draw, prefix):
    kind = draw(st.sampled_from(["chain", "star", "tree"]))
    n = draw(st.integers(2, 4))
    if kind == "chain":
        base = chain_scheme(n)
    elif kind == "star":
        base = star_scheme(n)
    else:
        base = random_tree_scheme(n, random.Random(draw(st.integers(0, 2**16))))
    return [AttributeSet(f"{prefix}{a}" for a in scheme) for scheme in base]


@st.composite
def databases(draw):
    """``(relations, operands)``: an acyclic database, connected or the
    union of two components, and its oracle operands in scheme order."""
    schemes = _shape(draw, "x")
    if draw(st.booleans()):
        schemes += _shape(draw, "y")
    domain = draw(st.integers(1, 3))
    relations, operands = [], []
    for index, scheme in enumerate(schemes):
        names = scheme.sorted()
        size = draw(st.sampled_from(_SIZES))
        rows = draw(st.lists(
            st.tuples(*[st.integers(0, domain - 1) for _ in names]),
            min_size=size, max_size=size,
        ))
        dicts = [dict(zip(names, row)) for row in rows]
        relations.append(Relation.from_dicts(scheme, dicts, name=f"R{index}"))
        operands.append((names, dicts))
    return relations, operands


def _produced(call):
    """``call()`` and the tuples the vector hash join produced meanwhile."""
    with obs.observed():
        counter = get_registry().counter("join.output_tuples")
        before = sum(counter.series().values())
        result = call()
        produced = sum(counter.series().values()) - before
    obs.get_tracer().clear()
    return result, produced


def _plans(query, rng):
    plans = []
    for make in [lambda: query.plan_ikkbz()] + [
        lambda space=space: query.optimize(space) for space in SearchSpace
    ]:
        try:
            plans.append(make())
        except OptimizerError:
            pass  # an empty subspace, or IKKBZ off a tree query graph
    plans += [query.plan_greedy(), query.plan_greedy(linear=True)]
    manual = sample_strategy(query.database, rng)
    plans.append(query.plan_from_text(manual.describe()))
    return plans


def _kernel_subsets(plan):
    return [record.subset for record in plan.execution if record.engine != "plan"]


def _check_plan(plan, expected):
    db = plan.strategy.database
    kernels = _kernel_subsets(plan)
    result, produced = _produced(plan.execute)
    oracle.assert_matches(result, expected)
    if not kernels:
        assert produced == plan.cost
        assert _produced(plan.execute)[1] == 0
    outside = [
        step for step in plan.strategy.steps()
        if not any(step.scheme_set.schemes <= subset for subset in kernels)
        or step.scheme_set.schemes in kernels
    ]
    for step in outside:
        hits = db.cache_stats().join_hits
        db.tau_of(step.scheme_set)
        assert db.cache_stats().join_hits == hits + 1, step
    return result


@settings(max_examples=60, deadline=None, derandomize=True)
@given(databases(), st.sampled_from([None, "vector", "yannakakis"]), st.integers(0, 99))
def test_execute_matches_the_oracle(case, engine, seed):
    relations, operands = case
    expected = oracle.join_all(operands)
    rng = random.Random(seed)
    plans = _plans(JoinQuery(Database(relations, engine=engine)), rng)
    for index, plan in enumerate(plans):
        # Fresh queries after the first plan: each execution starts cold.
        if index:
            query = JoinQuery(Database(relations, engine=engine))
            plan = query.plan_from_text(plan.strategy.describe())
        result = _check_plan(plan, expected)
        if _kernel_subsets(plan):
            binary = JoinQuery(Database(relations, engine="vector"))
            reference = binary.plan_from_text(plan.strategy.describe()).execute()
            assert result._table().order == reference._table().order
            assert result._table().rows == reference._table().rows


def _decision(db):
    plan = JoinQuery(Database(db.relations())).optimize()
    (record,) = plan.execution
    rho = round(record.rho, 4)
    return record.engine, rho, record.plan_tau, record.inputs, record.output


class TestDecisionPins:
    def test_selective_stars_run_on_the_kernel(self):
        assert _decision(generate_selective_star(3, 301)) == (
            "yannakakis", 74.7525, 90002, 1203, 1
        )
        assert _decision(generate_selective_star(4, 101)) == (
            "yannakakis", 49.9223, 30203, 604, 1
        )

    def test_bench_star4_and_fk_chain_run_their_plans(self):
        star4 = generate_database(
            star_scheme(4), random.Random(17), WorkloadSpec(size=120, domain=4)
        )
        fk_chain = generate_foreign_key_chain(6, random.Random(23), size=400)
        assert _decision(star4) == ("plan", 1.104, 3928, 102, 3456)
        assert _decision(fk_chain) == ("plan", 0.7143, 2000, 2400, 400)

    @pytest.mark.parametrize(
        "make, rho",
        [(paper.example3, 0.5), (paper.example4, 0.5), (paper.example5, 0.5238)],
    )
    def test_paper_examples_run_their_plans(self, make, rho):
        engine, got, *_ = _decision(make())
        assert (engine, got) == ("plan", rho)

    def test_a_routed_kernel_component_gives_the_binary_bytes(self):
        star = generate_selective_star(3, 31)
        plan = JoinQuery(Database(star.relations())).optimize()
        assert [(r.engine, r.reason) for r in plan.execution] == [
            ("yannakakis", "rho >= 1.2")
        ]
        result, produced = _produced(plan.execute)
        assert produced < plan.cost
        binary = JoinQuery(Database(star.relations(), engine="vector"))
        reference = binary.plan_from_text(plan.strategy.describe()).execute()
        assert result._table().order == reference._table().order
        assert result._table().rows == reference._table().rows

    def test_the_rule_reads_rho_star(self):
        assert RHO_STAR == 1.2

    def test_pins_override_the_rule(self):
        star = generate_selective_star(3, 31)
        pins = [("vector", "plan"), ("wcoj", "plan"), ("yannakakis", "yannakakis")]
        for engine, wanted in pins:
            plan = JoinQuery(Database(star.relations(), engine=engine)).optimize()
            assert [r.engine for r in plan.execution] == [wanted], engine
        example = paper.example4()
        plan = JoinQuery(Database(example.relations(), engine="yannakakis")).optimize()
        assert [(r.engine, r.reason) for r in plan.execution] == [
            ("yannakakis", "pinned on the database")
        ]

    def test_explain_and_to_dict_carry_the_decision(self):
        plan = JoinQuery(paper.example5()).optimize()
        line = (
            "execute: {CI, ID, MS, SC} -> plan "
            "(rho < 1.2; rho 0.524 = tau(S*) 11 / (sum|R| 17 + tau(R_C) 4))"
        )
        assert line in plan.explain().splitlines()
        (image,) = plan.to_dict()["execution"]
        assert image["engine"] == "plan" and image["plan_tau"] == 11
        assert image["relations"] == ("CI", "ID", "MS", "SC")


_SPACES = list(SearchSpace)

#: Example 1's strategies S1-S4 and the tuples each step sum produces.
_EXAMPLE1 = [
    ("(((R1 R2) R3) R4)", 570),
    ("(((R1 R2) R4) R3)", 570),
    ("((R1 R2) (R3 R4))", 549),
    ("((R1 R3) (R2 R4))", 546),
]


@pytest.mark.parametrize("space", _SPACES, ids=[s.value for s in _SPACES])
@pytest.mark.parametrize(
    "make",
    [paper.example1, paper.example2_c1_only, paper.example2_c2_only,
     paper.example3, paper.example4, paper.example5],
)
def test_paper_examples_execute_their_cost(make, space):
    plan = JoinQuery(make()).optimize(space)
    result, produced = _produced(plan.execute)
    assert produced == plan.cost
    assert result == make().evaluate()


@pytest.mark.parametrize("text, tau", _EXAMPLE1)
def test_example1_strategies_execute_their_cost(text, tau):
    plan = JoinQuery(paper.example1()).plan_from_text(text)
    assert plan.cost == tau
    assert _produced(plan.execute)[1] == tau
