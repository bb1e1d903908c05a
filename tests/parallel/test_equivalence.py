"""The parallel layer's contract: ``jobs=N`` returns byte-identical
results to the sequential path, for every driver.

Optimization results and sampled cost summaries must not depend on the
worker count, and the merged telemetry must match the sequential run's.
"""

import random

import pytest

from repro.obs.metrics import get_registry
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.spaces import SearchSpace
from repro.parallel import parallel_available
from repro.strategy.sampling import cost_distribution
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    generate_database,
)

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="requires the fork start method"
)

JOBS = 4


class TestExhaustiveOptimization:
    @pytest.mark.parametrize("space", list(SearchSpace))
    def test_plan_cost_and_tally_identical(self, space):
        db = generate_database(
            chain_scheme(5), random.Random(2), WorkloadSpec(size=12, domain=4)
        )
        sequential = optimize_exhaustive(db, space=space)
        parallel = optimize_exhaustive(db, space=space, jobs=JOBS)
        assert parallel.strategy.describe() == sequential.strategy.describe()
        assert parallel.cost == sequential.cost
        assert parallel.considered == sequential.considered
        assert parallel.space == sequential.space
        assert parallel.optimizer == sequential.optimizer

    def test_tie_break_matches_on_all_ties(self, ex3):
        # Example 3: every strategy ties, so the winner is purely the
        # describe()-lexicographic tie-break -- the sharpest test of the
        # chunk-winner reduction.
        sequential = optimize_exhaustive(ex3)
        parallel = optimize_exhaustive(ex3, jobs=3)
        assert parallel.strategy.describe() == sequential.strategy.describe()
        assert parallel.cost == sequential.cost


class TestCostDistribution:
    def test_summary_identical(self):
        db = generate_database(
            chain_scheme(5), random.Random(2), WorkloadSpec(size=12, domain=4)
        )
        sequential = cost_distribution(db, rng=random.Random(5), samples=30)
        parallel = cost_distribution(db, rng=random.Random(5), samples=30, jobs=3)
        assert parallel == sequential


class TestMergedTelemetry:
    @pytest.fixture(autouse=True)
    def clean_obs_state(self):
        import repro.obs as obs

        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_exhaustive_strategy_counter_matches_sequential(self):
        db = generate_database(
            chain_scheme(4), random.Random(2), WorkloadSpec(size=10, domain=4)
        )
        registry = get_registry()
        registry.enabled = True
        optimize_exhaustive(db)
        sequential = dict(
            registry.counter(
                "optimizer.exhaustive.strategies", "strategies costed by full enumeration"
            ).series()
        )
        registry.reset()
        optimize_exhaustive(db, jobs=2)
        parallel = dict(
            registry.counter(
                "optimizer.exhaustive.strategies", "strategies costed by full enumeration"
            ).series()
        )
        assert parallel == sequential
