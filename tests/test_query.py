"""Tests for the high-level JoinQuery/Plan API."""

import gc
import random
import weakref

import pytest

from repro.database import Database
from repro.errors import OptimizerError
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery, Plan
from repro.strategy.cost import tau_cost
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    cycle_scheme,
    generate_database,
)
from repro.workloads.paper import example4


class TestPlanning:
    def test_optimize_returns_best_plan(self, ex5):
        plan = JoinQuery(ex5).optimize()
        assert plan.cost == 11
        assert not plan.is_linear
        assert not plan.uses_cartesian_products

    def test_optimize_in_subspace(self, ex5):
        plan = JoinQuery(ex5).optimize(SearchSpace.LINEAR)
        assert plan.cost == 12
        assert plan.is_linear

    def test_estimate_driven_reports_true_cost(self, ex5):
        plan = JoinQuery(ex5).optimize(use_estimates=True)
        assert plan.cost == tau_cost(plan.strategy)
        assert plan.optimizer == "dp+estimates"
        assert plan.cost >= 11

    def test_greedy_plans(self, ex5):
        query = JoinQuery(ex5)
        bushy = query.plan_greedy()
        linear = query.plan_greedy(linear=True)
        assert bushy.cost >= 11
        assert linear.is_linear

    def test_manual_plan(self, ex4):
        plan = JoinQuery(ex4).plan_from_text("((GS CL) SC)")
        assert plan.cost == 11
        assert plan.optimizer == "manual"
        assert plan.uses_cartesian_products


class TestExecution:
    def test_execute_returns_final_relation(self, ex3):
        query = JoinQuery(ex3)
        result = query.execute()
        assert result == ex3.evaluate()

    def test_execute_specific_plan(self, ex3):
        query = JoinQuery(ex3)
        plan = query.plan_from_text("((GS CL) SC)")
        assert query.execute(plan) == ex3.evaluate()

    def test_plan_execute_direct(self, ex3):
        plan = JoinQuery(ex3).optimize()
        assert plan.execute() == ex3.evaluate()


class TestExplain:
    def test_explain_mentions_scans_and_joins(self, ex5):
        text = JoinQuery(ex5).optimize().explain()
        assert "scan MS" in text
        assert "join" in text
        assert "tau: 11" in text

    def test_pipeline_trace(self, ex4):
        plan = JoinQuery(ex4).plan_from_text("((GS SC) CL)")
        trace = plan.pipeline()
        assert [cost for _, cost in trace] == [9, 5]

    def test_repr(self, ex3):
        assert "tau=" in repr(JoinQuery(ex3).optimize())
        assert "JoinQuery" in repr(JoinQuery(ex3))


class TestSafety:
    def test_all_space_always_safe(self, ex4):
        assert JoinQuery(ex4).subspace_is_safe(SearchSpace.ALL)

    def test_nocp_safe_iff_c1_c2(self, ex4, ex5):
        # Example 4: C1 fails -> no guarantee; Example 5: C1 ∧ C2 -> safe.
        assert not JoinQuery(ex4).subspace_is_safe(SearchSpace.NOCP)
        assert JoinQuery(ex5).subspace_is_safe(SearchSpace.NOCP)

    def test_linear_safe_iff_c3(self, ex5):
        # Example 5 violates C3: the linear space is (provably) unsafe.
        query = JoinQuery(ex5)
        assert not query.subspace_is_safe(SearchSpace.LINEAR)
        assert not query.subspace_is_safe(SearchSpace.LINEAR_NOCP)

    def test_safety_matches_reality_on_example5(self, ex5):
        # The guarantee machinery and the actual optima must agree here.
        query = JoinQuery(ex5)
        best = query.optimize().cost
        nocp = query.optimize(SearchSpace.NOCP).cost
        linear = query.optimize(SearchSpace.LINEAR).cost
        assert query.subspace_is_safe(SearchSpace.NOCP) and nocp == best
        assert not query.subspace_is_safe(SearchSpace.LINEAR) and linear > best

    def test_safety_report_keys(self, ex3):
        report = JoinQuery(ex3).safety_report()
        assert set(report) == {
            "C1",
            "C2",
            "C3",
            "safe[all]",
            "safe[linear]",
            "safe[nocp]",
            "safe[linear_nocp]",
        }

    def test_conditions_cached(self, ex3):
        query = JoinQuery(ex3)
        first = query.condition("C1")
        assert query.condition("C1") == first
        assert "C1" in query._condition_cache

    def test_unknown_condition_rejected(self, ex3):
        with pytest.raises(OptimizerError):
            JoinQuery(ex3).condition("C9")

    def test_unconnected_database_only_all_is_safe(self, ex1):
        query = JoinQuery(ex1)
        assert query.subspace_is_safe(SearchSpace.ALL)
        assert not query.subspace_is_safe(SearchSpace.NOCP)


class TestPlanFromResult:
    def test_wraps_optimizer_result(self, ex3):
        from repro.optimizer.exhaustive import optimize_exhaustive

        result = optimize_exhaustive(ex3)
        plan = Plan.from_result(result)
        assert plan.cost == result.cost
        assert plan.optimizer == "exhaustive"


class TestIKKBZPlan:
    def test_plan_ikkbz_on_chain(self, ex5):
        plan = JoinQuery(ex5).plan_ikkbz()
        assert plan.is_linear
        assert plan.optimizer == "ikkbz"
        assert plan.cost >= 11  # true tau, bounded by the true optimum

    def test_plan_ikkbz_rejects_non_tree(self):
        import random

        from repro import Database
        from repro.workloads.generators import WorkloadSpec, cycle_scheme, generate_database

        rng = random.Random(0)
        db = generate_database(cycle_scheme(4), rng, WorkloadSpec(size=6, domain=3))
        import pytest as _pytest

        from repro.errors import OptimizerError

        with _pytest.raises(OptimizerError):
            JoinQuery(db).plan_ikkbz()

    def test_plan_executes(self, ex5):
        plan = JoinQuery(ex5).plan_ikkbz()
        assert plan.execute() == ex5.evaluate()


def _uniform(scheme):
    return generate_database(
        scheme, random.Random(0), WorkloadSpec(size=20, domain=5)
    )


class TestRelease:
    """A queried database is freed by reference counting alone, so the
    joins it memoized go the moment the caller drops it."""

    @pytest.mark.parametrize(
        "make",
        [
            example4,
            lambda: _uniform(chain_scheme(4)),  # routed to yannakakis
            lambda: _uniform(cycle_scheme(4)),  # routed to wcoj
        ],
        ids=["example4", "chain4", "cycle4"],
    )
    def test_database_dies_without_the_cyclic_collector(self, make):
        enabled = gc.isenabled()
        gc.disable()
        try:
            db = Database(make().relations())
            query = JoinQuery(db)
            query.execute(query.optimize())
            # The routed copy when the router re-pinned, else db itself.
            refs = [weakref.ref(db), weakref.ref(query.database)]
            del db, query
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()
