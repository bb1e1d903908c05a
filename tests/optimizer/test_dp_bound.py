"""The subset DP's bound against the unbounded search.

With the default cost source, ``optimize_dp`` in ``ALL`` skips the split
loop of every state other than the whole scheme whose tau exceeds the
slack of a linear plan (the module docstring of
:mod:`repro.optimizer.dp`).  ``subset_cost=db.tau_of`` gets the same
taus but never bounds.  On chains, stars, trees, cycles, cliques and
unions of two shapes, over domains of one to four values so that ties
are common, and on the unpinned database and every pin, the two must
agree on the plan, its cost and the states solved.  The states skipped
must be those whose tau exceeds the slack
(:func:`tests.oracle.bound_skips`), as counted by the ``optimize.dp``
span, and the splits tried all the others'; no step of the returned
plan may be skipped.
"""

import random

from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro import Database
from repro.optimizer.dp import optimize_dp
from repro.optimizer.spaces import SearchSpace
from repro.relational.attributes import AttributeSet
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

ENGINES = (None, "vector", "wcoj", "yannakakis")


def _shape(draw, most):
    kind = draw(st.sampled_from(["chain", "star", "tree", "cycle", "clique"]))
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
def relations(draw):
    """The states of one shape of up to six relations, or of two shapes
    of up to three over disjoint attributes, on a domain of 1-4 values."""
    if draw(st.booleans()):
        scheme = _shape(draw, 6)
    else:
        scheme = _shape(draw, 3) + [
            AttributeSet(a + "z" for a in s) for s in _shape(draw, 3)
        ]
    spec = WorkloadSpec(size=draw(st.integers(1, 6)), domain=draw(st.integers(1, 4)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return generate_database(scheme, rng, spec).relations()


def _search(db, **kwargs):
    """The DP's result in ``ALL`` and its ``optimize.dp`` span's
    attributes; spans are reset after, so none outlives the run."""
    with obs.observed() as tracer:
        result = optimize_dp(db, SearchSpace.ALL, **kwargs)
    (span,) = tracer.spans_named("optimize.dp")
    obs.reset()
    return result, span.attributes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(relations())
def test_the_bound_keeps_the_unbounded_plan(relations):
    for engine in ENGINES:
        plain_db = Database(relations, engine=engine)
        plain, plain_span = _search(plain_db, subset_cost=plain_db.tau_of)
        db = Database(relations, engine=engine)
        result, span = _search(db)
        assert result.strategy.describe() == plain.strategy.describe(), engine
        assert result.cost == plain.cost, engine
        assert result.considered == plain.considered, engine
        assert plain_span["skipped"] == 0, engine
        # An unpinned cyclic component that is a proper subset waits
        # for its split before its tau, so nothing is bounded there.
        full = db.scheme.subset_index().full
        skips = set()
        if engine is not None or all(
            tree is not None or mask == full for mask, tree in db.component_trees()
        ):
            skips = oracle.bound_skips(db.scheme.schemes, plain_db.tau_of)
        assert span["skipped"] == len(skips), engine
        untried = sum(2 ** (len(state) - 1) - 1 for state in skips)
        assert span["splits"] == plain_span["splits"] - untried, engine
        for step in result.strategy.steps():
            assert frozenset(step.scheme_set.schemes) not in skips, engine
