"""Tests for optimize_dp's pluggable subset-cost source."""

import random

import pytest

import repro.obs as obs
from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import CardinalityEstimator
from repro.optimizer.spaces import SearchSpace
from repro.relational.attributes import AttributeSet
from repro.strategy.cost import max_intermediate_cost, tau_cost
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    cycle_scheme,
    generate_database,
    random_tree_scheme,
    star_scheme,
)
from tests import oracle


@pytest.fixture
def db():
    rng = random.Random(21)
    return generate_database(chain_scheme(4), rng, WorkloadSpec(size=10, domain=4))


class TestSubsetCostParameter:
    def test_default_is_true_tau(self, db):
        explicit = optimize_dp(db, subset_cost=db.tau_of)
        default = optimize_dp(db)
        assert explicit.cost == default.cost

    def test_estimator_as_cost_source(self, db):
        est = CardinalityEstimator.from_database(db)
        result = optimize_dp(db, subset_cost=lambda key: est.estimate(key))
        # The reported cost is in estimate units...
        assert result.cost == pytest.approx(est.estimate_strategy(result.strategy))
        # ...and the strategy is still a valid full plan.
        assert result.strategy.scheme_set == db.scheme

    def test_constant_cost_makes_all_plans_tie(self, db):
        result = optimize_dp(db, subset_cost=lambda key: 1)
        # n-1 steps, each costing 1.
        assert result.cost == len(db) - 1

    def test_zero_cost(self, db):
        assert optimize_dp(db, subset_cost=lambda key: 0).cost == 0

    def test_cost_source_composes_with_spaces(self, db):
        est = CardinalityEstimator.from_database(db)
        result = optimize_dp(
            db, SearchSpace.LINEAR, subset_cost=lambda key: est.estimate(key)
        )
        assert result.strategy.is_linear()

    def test_adversarial_cost_changes_the_winner(self, db):
        # Penalize large subsets: the DP must prefer balanced (bushy)
        # trees over chains when deep subtrees are taxed.
        def depth_tax(key):
            return len(key) ** 3

        taxed = optimize_dp(db, subset_cost=depth_tax)
        # Cost: every strategy has one node of size 4 (64) and one of size
        # 3 or two of size 2; bushy = 64 + 8 + 8 = 80 < linear 64 + 27 + 8.
        assert taxed.cost == 80
        assert not taxed.strategy.is_linear()

    def test_minimizing_peak_via_dp_is_not_supported_directly(self, db):
        # Documented behaviour: the DP optimizes *additive* costs; the
        # bottleneck measure is not additive, so the exhaustive optimizer
        # is the tool for max_intermediate_cost.
        from repro.optimizer.exhaustive import optimize_exhaustive

        peak = optimize_exhaustive(db, cost=max_intermediate_cost)
        assert peak.cost == min(
            max_intermediate_cost(s)
            for s in __import__(
                "repro.strategy.enumerate", fromlist=["all_strategies"]
            ).all_strategies(db)
        )

    def test_float_costs_supported(self, db):
        result = optimize_dp(db, subset_cost=lambda key: len(key) * 0.5)
        assert isinstance(result.cost, float)
        assert result.cost == pytest.approx(
            sum(len(step.scheme_set) * 0.5 for step in result.strategy.steps())
        )


def _two_components(seed):
    """Random states over two shapes on disjoint attributes.  The second
    shape's attributes carry a suffix (``A`` -> ``Az``), so its relations
    sort between the first's and the components interleave in
    sorted-scheme order."""
    rng = random.Random(seed)
    schemes = []
    for suffix in ("", "z"):
        kind = rng.choice(["chain", "star", "cycle", "tree"])
        if kind == "chain":
            base = chain_scheme(rng.randint(1, 4))
        elif kind == "star":
            base = star_scheme(rng.randint(2, 4))
        elif kind == "cycle":
            base = cycle_scheme(rng.randint(3, 4))
        else:
            base = random_tree_scheme(rng.randint(1, 4), rng)
        schemes += [AttributeSet(a + suffix for a in s) for s in base]
    return generate_database(schemes, rng, WorkloadSpec(size=6, domain=3)).relations()


def _search(db, space, **kwargs):
    """``(describe, cost, states, splits)`` of the DP's run, or ``None``
    when the space is empty.  Spans and metrics are reset before and
    after, so the splits are this run's and no span outlives it."""
    obs.reset()
    try:
        with obs.observed():
            try:
                result = optimize_dp(db, space, **kwargs)
            except OptimizerError:
                return None
            splits = get_registry().counter("optimizer.dp.splits").value(
                space=space.value
            )
    finally:
        obs.reset()
    return result.strategy.describe(), result.cost, result.considered, splits


class TestDefaultCostSource:
    """With the default cost source the DP multiplies an unconnected
    state's tau from its own table (the state's join is the Cartesian
    product of its components' joins) and reads a single relation's tau
    as its length, so it asks ``Database.tau_of_mask`` for connected
    multi-relation states only -- and still finds what the database's
    own ``tau_of`` as the cost source finds.  In ``ALL`` it tries no
    split of a state its bound skips (:func:`tests.oracle.bound_skips`)
    unless a cyclic component, whose tau waits for its split, is a
    proper subset of the unpinned scheme."""

    @pytest.mark.parametrize("seed", range(16))
    def test_the_database_is_asked_for_connected_states_only(self, seed, monkeypatch):
        relations = _two_components(seed)
        for space in SearchSpace:
            reference = Database(relations)
            expected = _search(reference, space, subset_cost=reference.tau_of)
            trees = reference.component_trees()
            if space is SearchSpace.ALL and all(tree is not None for _, tree in trees):
                skips = oracle.bound_skips(reference.scheme.schemes, reference.tau_of)
                skipped = sum(2 ** (len(state) - 1) - 1 for state in skips)
                expected = expected[:3] + (expected[3] - skipped,)
            asked = []
            real = Database.tau_of_mask

            def spy(db, mask):
                asked.append(mask)
                return real(db, mask)

            monkeypatch.setattr(Database, "tau_of_mask", spy)
            db = Database(relations)
            got = _search(db, space)
            monkeypatch.undo()
            assert got == expected, space
            index = db.scheme.subset_index()
            assert len(asked) == len(set(asked)), space
            for mask in asked:
                assert mask & (mask - 1) and index.component(mask) == mask, space
