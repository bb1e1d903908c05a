"""Graceful degradation end to end: exhausted searches fall back to the
deterministic greedy plan, condition checks report timed-out, cancelled
sweeps raise promptly, and the CLI surfaces all of it."""

import threading
import time

import pytest

from repro.cli import main
from repro.conditions.checks import check_c1, check_c3
from repro.errors import OperationCancelled
from repro.optimizer.dp import optimize_dp
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.fallback import degrade_to_greedy
from repro.optimizer.greedy import greedy_bushy, greedy_linear
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery
from repro.runtime import CancelToken, Deadline, Runtime
from repro.workloads.generators import WorkloadSpec


def _clique(relations=8, size=12, domain=5, seed=0):
    return WorkloadSpec(
        size=size, domain=domain, shape="clique", relations=relations, seed=seed
    ).build()


class TestExhaustiveDegradation:
    def test_budget_exhaustion_serves_greedy_fallback(self):
        db = _clique()
        result = optimize_exhaustive(
            db, SearchSpace.ALL, runtime=Runtime.with_limits(budget=50)
        )
        assert result.degraded
        assert result.degradation.trigger == "budget"
        assert result.degradation.covered == 50
        expected = greedy_bushy(db)
        assert result.strategy.describe() == expected.strategy.describe()
        assert result.cost == expected.cost

    def test_deadline_exhaustion_serves_greedy_fallback(self):
        db = _clique()
        runtime = Runtime(deadline=Deadline.after(0))
        time.sleep(0.001)
        result = optimize_exhaustive(db, SearchSpace.ALL, runtime=runtime)
        assert result.degraded
        assert result.degradation.trigger == "deadline"
        assert (
            result.strategy.describe() == greedy_bushy(db).strategy.describe()
        )

    def test_unbounded_run_is_exact_and_not_degraded(self):
        db = WorkloadSpec(
            size=10, domain=4, shape="chain", relations=4, seed=1
        ).build()
        result = optimize_exhaustive(db, SearchSpace.ALL, runtime=None)
        assert not result.degraded
        assert result.cost == optimize_dp(db).cost


class TestDPDegradation:
    def test_dp_budget_exhaustion_falls_back(self):
        db = _clique()
        result = optimize_dp(db, SearchSpace.ALL, runtime=Runtime.with_limits(budget=5))
        assert result.degraded
        assert result.optimizer == "greedy-bushy"
        assert result.strategy.describe() == greedy_bushy(db).strategy.describe()

    def test_linear_space_falls_back_to_greedy_linear(self):
        db = _clique(relations=6)
        result = optimize_dp(
            db, SearchSpace.LINEAR, runtime=Runtime.with_limits(budget=3)
        )
        assert result.degraded
        assert result.optimizer == "greedy-linear"
        assert result.strategy.is_linear()
        assert (
            result.strategy.describe() == greedy_linear(db).strategy.describe()
        )


class TestLicensedFallbackSpace:
    def test_cached_c3_verdict_licenses_linear_fallback(self):
        db = _clique(relations=6)
        runtime = Runtime.with_limits(budget=1)
        runtime.condition_verdicts["C3"] = True
        runtime.charge()
        runtime.charge()  # exhaust
        result = degrade_to_greedy(db, SearchSpace.ALL, "budget", 0, runtime, "dp")
        assert result.degradation.fallback_space is SearchSpace.LINEAR_NOCP
        assert result.optimizer == "greedy-linear"
        assert result.space is SearchSpace.ALL  # served *for* the request

    def test_c1_and_c2_license_nocp(self):
        db = _clique(relations=6)
        runtime = Runtime.with_limits(budget=1)
        runtime.condition_verdicts.update({"C1": True, "C2": True})
        result = degrade_to_greedy(db, SearchSpace.ALL, "budget", 0, runtime, "dp")
        assert result.degradation.fallback_space is SearchSpace.NOCP

    def test_no_verdicts_keep_target_space(self):
        db = _clique(relations=6)
        runtime = Runtime.with_limits(budget=1)
        result = degrade_to_greedy(db, SearchSpace.ALL, "budget", 0, runtime, "dp")
        assert result.degradation.fallback_space is SearchSpace.ALL


class TestConditionTimeout:
    def test_bounded_check_times_out_not_raises(self):
        db = WorkloadSpec(
            size=12, domain=5, shape="chain", relations=6, seed=0
        ).build()
        report = check_c1(db, runtime=Runtime.with_limits(budget=2))
        assert not report.decided
        assert report.timed_out.trigger == "budget"
        assert report.instances_checked <= 2

    def test_query_safety_three_valued(self):
        db = WorkloadSpec(
            size=12, domain=5, shape="chain", relations=5, seed=3
        ).build()
        runtime = Runtime.with_limits(budget=1)
        runtime.budget.spent = 5  # pre-exhausted: every check times out
        query = JoinQuery(db, runtime=runtime)
        verdict = query.condition("C1")
        assert not isinstance(verdict, bool)
        report = query.safety_report()
        assert report["safe[all]"] is True  # ALL is safe unconditionally


class TestCancellation:
    def test_cancelled_exhaustive_sweep_raises_promptly(self):
        db = _clique()  # 13!! = 135135 candidates: far beyond the window
        token = CancelToken()
        runtime = Runtime(token=token)
        outcome = {}

        def run():
            try:
                optimize_exhaustive(db, SearchSpace.ALL, runtime=runtime)
                outcome["error"] = "completed without cancellation"
            except OperationCancelled:
                outcome["cancelled_at"] = time.monotonic()

        worker = threading.Thread(target=run)
        worker.start()
        time.sleep(0.5)  # let the sweep start costing
        cancelled = time.monotonic()
        token.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive(), "cancelled sweep never returned"
        assert "cancelled_at" in outcome, outcome.get("error")
        assert outcome["cancelled_at"] - cancelled < 10

    def test_greedy_floor_honors_cancellation(self):
        db = _clique(relations=6)
        token = CancelToken()
        token.cancel()
        with pytest.raises(OperationCancelled):
            greedy_bushy(db, runtime=Runtime(token=token))


class TestPlanProvenance:
    def test_degraded_plan_to_dict(self):
        db = _clique()
        query = JoinQuery(db, runtime=Runtime.with_limits(budget=5))
        plan = query.optimize(SearchSpace.ALL)
        assert plan.degraded
        image = plan.to_dict()
        assert image["degraded"] is True
        assert image["degradation"]["trigger"] == "budget"
        assert image["space"] == "all"
        assert image["optimizer"] == plan.optimizer
        assert "degraded:" in plan.explain()

    def test_exact_plan_provenance(self):
        db = WorkloadSpec(
            size=10, domain=4, shape="chain", relations=4, seed=0
        ).build()
        plan = JoinQuery(db).optimize(SearchSpace.ALL)
        assert not plan.degraded
        assert plan.provenance.cost == plan.cost
        image = plan.to_dict()
        assert image["degradation"] is None
        assert image["cost"] == plan.cost


class TestCLIRoundTrips:
    def test_conditions_budget_renders_timed_out(self, capsys):
        assert main(["conditions", "--example", "5", "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "timed-out" in out

    def test_conditions_unbounded_stays_decided(self, capsys):
        assert main(["conditions", "--example", "4"]) == 0
        out = capsys.readouterr().out
        assert "timed-out" not in out
        assert "C2  : yes" in out

    def test_optimize_timeout_degrades_with_exit_zero(self, capsys):
        code = main(
            [
                "optimize",
                "--shape",
                "clique",
                "--relations",
                "8",
                "--size",
                "12",
                "--space",
                "exhaustive",
                "--timeout-ms",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded: deadline exhausted" in out
        assert "greedy-bushy" in out
