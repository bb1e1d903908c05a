"""The bottom-up DP against the recursive search it replaced.

``_reference`` is the top-down memoized recursion ``optimize_dp`` ran
until 6.0.0, kept here as the oracle: it tries each state's splits in
``combinations`` order (``ALL``: the lowest relation in part 1, the rest
of part 1 smallest first; ``LINEAR``: one relation peeled per split, in
sorted order; the CP-avoiding spaces filter those), and the first
strictly cheaper split wins.  The bottom-up pass enumerates ``ALL``'s
splits as submasks instead, so ties are where the two could part: the
cost sources include true tau and sources that tie on every split.
With the default cost source ``ALL`` skips the split loop of every state
whose tau exceeds a linear plan's slack (:func:`tests.oracle.bound_skips`),
so the recursion skips the same states there.

On chains, stars, random trees, cycles, cliques, unions of two shapes
and single relations, in all four spaces, the two must agree on the
strategy, its cost, the states solved and the splits tried.  The DP
must ask its cost source for every proper subset of a state before the
state, and for the whole scheme last; and a budget of ``N`` runtime
units must degrade after exactly ``N`` states.
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro import Database
from repro.errors import OptimizerError
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import CardinalityEstimator
from repro.optimizer.spaces import SearchSpace
from repro.relational.attributes import AttributeSet
from repro.runtime import Runtime
from repro.schemegraph.index import bits_of
from repro.strategy.tree import Strategy
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    generate_database,
    random_tree_scheme,
    star_scheme,
)
from tests import oracle


def _reference(db, space, subset_cost, slack=None):
    """The recursive DP of 6.0.0: ``(strategy, cost, states, splits)``,
    or ``None`` when the space is empty.  Given a ``slack``, a state
    other than the whole scheme whose cost exceeds it costs infinity and
    tries no split."""
    index = db.scheme.subset_index()
    memo, chosen = {}, {}
    counts = {"states": 0, "splits": 0}

    def connected(part):
        return len(index.components(part)) == 1

    def splits(mask):
        members = bits_of(mask)
        if space.linear_only:
            parts = [mask ^ bit for bit in members]
        else:
            low, rest = members[0], members[1:]
            parts = [
                low + sum(picked)
                for size in range(len(rest))
                for picked in combinations(rest, size)
            ]
        if not space.avoids_cartesian_products:
            return parts
        components = index.components(mask)
        if len(components) == 1:
            return [p for p in parts if connected(p) and connected(mask ^ p)]
        return [
            p for p in parts if all(c & p == c or not c & p for c in components)
        ]

    def best(mask):
        if mask in memo:
            return memo[mask]
        counts["states"] += 1
        cost = 0
        if mask & (mask - 1):
            tau_here = subset_cost(frozenset(index.members(mask)))
            if slack is not None and mask != index.full and tau_here > slack:
                memo[mask] = math.inf
                return math.inf
            cost = None
            for part1 in splits(mask):
                counts["splits"] += 1
                left = best(part1)
                if left is None:
                    continue
                right = best(mask ^ part1)
                if right is None:
                    continue
                total = left + right + tau_here
                if cost is None or total < cost:
                    cost = total
                    chosen[mask] = part1
        memo[mask] = cost
        return cost

    def build(mask):
        part1 = chosen.get(mask)
        if part1 is None:
            return Strategy.leaf(db, index.schemes[mask.bit_length() - 1])
        return Strategy.join(build(part1), build(mask ^ part1))

    cost = best(index.full)
    if cost is None:
        return None
    return build(index.full), cost, counts["states"], counts["splits"]


def _shape(draw, kind, most):
    if kind == "chain":
        return chain_scheme(draw(st.integers(1, most)))
    if kind == "star":
        return star_scheme(draw(st.integers(2, most)))
    if kind == "tree":
        seed = draw(st.integers(0, 2**16))
        return random_tree_scheme(draw(st.integers(1, most)), random.Random(seed))
    if kind == "cycle":
        return cycle_scheme(draw(st.integers(3, most)))
    return clique_scheme(draw(st.integers(3, min(most, 4))))


@st.composite
def databases(draw, most=6):
    """A small random database of one shape, two shapes over disjoint
    attributes, or a single relation."""
    kind = draw(st.sampled_from(["chain", "star", "tree", "cycle", "clique", "union", "single"]))
    if kind == "single":
        scheme = chain_scheme(1)
    elif kind == "union":
        kinds = st.sampled_from(["chain", "star", "tree", "cycle"])
        left = _shape(draw, draw(kinds), most // 2 + 1)
        right = _shape(draw, draw(kinds), max(3, most - len(left)))
        scheme = left + [AttributeSet("x" + a for a in s) for s in right]
    else:
        scheme = _shape(draw, kind, most)
    spec = WorkloadSpec(size=draw(st.integers(1, 6)), domain=draw(st.integers(1, 3)))
    return generate_database(scheme, random.Random(draw(st.integers(0, 2**16))), spec)


def _sources(db):
    estimator = CardinalityEstimator.from_database(db)
    return {
        "tau": None,
        "one": lambda key: 1,
        "half": lambda key: len(key) * 0.5,
        "estimate": lambda key: estimator.estimate(key),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(databases())
def test_the_bottom_up_dp_matches_the_recursion(db):
    # The DP's bound runs unless a cyclic component of this unpinned
    # database is a proper subset of it: that tau waits for its split.
    full = db.scheme.subset_index().full
    bounded = all(
        tree is not None or mask == full for mask, tree in db.component_trees()
    )
    for space in SearchSpace:
        for name, source in _sources(db).items():
            slack = None
            if space is SearchSpace.ALL and source is None and bounded:
                slack = oracle.linear_slack(db.scheme.schemes, db.tau_of)
            reference = _reference(db, space, source or db.tau_of, slack)
            if reference is None:
                with pytest.raises(OptimizerError):
                    optimize_dp(db, space, subset_cost=source)
                continue
            strategy, cost, states, splits = reference
            result = optimize_dp(db, space, subset_cost=source)
            label = (space, name)
            assert result.strategy.describe() == strategy.describe(), label
            assert result.cost == cost, label
            assert result.considered == states, label
            with obs.observed() as tracer:
                optimize_dp(db, space, subset_cost=source)
            (span,) = tracer.spans_named("optimize.dp")
            obs.reset()
            assert span.attributes["splits"] == splits, label


@settings(max_examples=40, deadline=None, derandomize=True)
@given(databases())
def test_every_proper_subset_is_asked_before_the_subset(db):
    full = frozenset(db.scheme.schemes)
    for space in SearchSpace:
        asked = []

        def cost(key):
            asked.append(key)
            return 1

        try:
            result = optimize_dp(db, space, subset_cost=cost)
        except OptimizerError:
            continue
        # Once per multi-relation state; every relation is a state too.
        assert len(asked) == len(set(asked)) == result.considered - len(db)
        for position, key in enumerate(asked):
            later = asked[position + 1:]
            assert not any(other < key for other in later), (space, key)
        if len(db) > 1:
            assert asked[-1] == full, space


@settings(max_examples=25, deadline=None, derandomize=True)
@given(databases(most=5))
def test_a_budget_degrades_after_exactly_that_many_states(db):
    db = Database(db.relations(), engine="vector")
    for space in SearchSpace:
        try:
            exact = optimize_dp(db, space)
        except OptimizerError:
            continue
        for budget in range(1, exact.considered):
            result = optimize_dp(db, space, runtime=Runtime.with_limits(budget=budget))
            assert result.degraded, (space, budget)
            assert result.degradation.covered == budget, (space, budget)
        bounded = optimize_dp(
            db, space, runtime=Runtime.with_limits(budget=exact.considered)
        )
        assert not bounded.degraded, space
        assert bounded.strategy.describe() == exact.strategy.describe()
        assert bounded.cost == exact.cost
