"""The condition sweeps against the oracle's reading of the paper.

The reference (:func:`tests.oracle.condition_instances`) enumerates
subsets with ``itertools.combinations``, finds connectivity by
breadth-first search over shared attributes, reads *linked* off
attribute unions, and counts every join with the nested-loop join --
including C1's unlinked joins, which the checkers read as a product of
two counts.  The databases are chains, stars, cycles and cliques of at
most five relations, ``AB, BC, AC, ABC``, unions of two shapes over
disjoint attributes, and single relations.  Relations may be empty, so
``R_D`` may be too.

For each condition the checker must agree with the reference on the
verdict, the instance count and the witnesses (as a multiset).  A
stop-at-first check must stop at one of the reference's witnesses.  A
check under a budget of ``b`` units, with more than ``b`` instances and
no violation, must time out having examined exactly ``b``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.conditions.checks import check_condition
from repro.database import Database
from repro.relational.attributes import AttributeSet, attrs
from repro.relational.relation import Relation
from repro.runtime import Runtime
from repro.workloads.generators import (
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    star_scheme,
)
from tests import oracle

CONDITIONS = ("C1", "C1'", "C2", "C3", "C4")

_SMALL = {
    "chain": lambda draw, most: chain_scheme(draw(st.integers(1, most))),
    "star": lambda draw, most: star_scheme(draw(st.integers(2, most))),
    "single": lambda draw, most: [attrs("AB")],
}
_SHAPES = dict(
    _SMALL,
    cycle=lambda draw, most: cycle_scheme(draw(st.integers(3, most))),
    clique=lambda draw, most: clique_scheme(draw(st.integers(3, most))),
    covered_triangle=lambda draw, most: [attrs(s) for s in ("AB", "BC", "AC", "ABC")],
)


@st.composite
def databases(draw):
    """``(relations, operands)``: a random database and its oracle
    operands, keyed by schemes as frozensets of attribute names."""
    kind = draw(st.sampled_from(sorted(_SHAPES) + ["union"]))
    if kind == "union":
        left = _SMALL[draw(st.sampled_from(sorted(_SMALL)))](draw, 3)
        right = _SMALL[draw(st.sampled_from(sorted(_SMALL)))](draw, 3)
        schemes = left + [AttributeSet("x" + a for a in s) for s in right]
    else:
        schemes = _SHAPES[kind](draw, 5)
    domain = draw(st.integers(1, 3))
    relations, operands = [], {}
    for scheme in schemes:
        names = scheme.sorted()
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, domain - 1) for _ in names]),
                max_size=5,
            )
        )
        dicts = [dict(zip(names, row)) for row in rows]
        relations.append(Relation.from_dicts(scheme, dicts))
        operands[frozenset(names)] = (names, dicts)
    return relations, operands


def _oracle_tau(operands):
    counts = {}

    def tau(subset):
        if subset not in counts:
            joined = oracle.join_all(operands[s] for s in sorted(subset, key=sorted))
            counts[subset] = len(joined[1])
        return counts[subset]

    return tau


def _names(subset):
    return frozenset(frozenset(scheme) for scheme in subset.schemes)


def _witness_key(witness):
    """A witness as the oracle states it: C1-style triples in role order,
    pairs unordered, each side with its own count."""
    e, e1, e2 = witness.subsets
    if e2 is not None:
        return (_names(e), _names(e1), _names(e2)), witness.lhs, witness.rhs
    tau1, tau2 = witness.rhs
    return frozenset([(_names(e), tau1), (_names(e1), tau2)]), witness.lhs


def _oracle_key(subsets, lhs, rhs):
    if len(subsets) == 3:
        return subsets, lhs, rhs
    (e1, e2), (tau1, tau2) = subsets, rhs
    return frozenset([(e1, tau1), (e2, tau2)]), lhs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(databases())
def test_every_condition_matches_the_oracle(case):
    relations, operands = case
    tau = _oracle_tau(operands)
    for condition in CONDITIONS:
        instances = oracle.condition_instances(condition, operands, tau)
        expected = Counter(
            _oracle_key(subsets, lhs, rhs)
            for subsets, lhs, rhs, holds in instances
            if not holds
        )

        report = check_condition(Database(relations), condition, all_witnesses=True)
        assert report.holds == (not expected), condition
        assert report.instances_checked == len(instances), condition
        assert Counter(_witness_key(w) for w in report.violations) == expected

        first = check_condition(Database(relations), condition)
        assert first.holds == (not expected), condition
        assert len(first.violations) == (1 if expected else 0)
        assert all(_witness_key(w) in expected for w in first.violations)

        for budget in (1, 2, 5):
            bounded = check_condition(
                Database(relations),
                condition,
                runtime=Runtime.with_limits(budget=budget),
            )
            if len(instances) <= budget:
                assert bounded.holds == (not expected), condition
            elif not expected:
                assert bounded.timed_out.units_examined == budget, condition
            else:
                # A violation within the budget decides; otherwise the
                # sweep stops exactly at the budget.
                assert (
                    bounded.holds is False
                    or bounded.timed_out.units_examined == budget
                ), condition


@settings(max_examples=40, deadline=None, derandomize=True)
@given(databases())
def test_connected_and_linked_match_the_oracle(case):
    relations, operands = case
    index = Database(relations).scheme.subset_index()
    masks = index.connected()
    got = [frozenset(frozenset(s) for s in index.members(m)) for m in masks]
    assert len(set(got)) == len(got)
    assert set(got) == set(oracle.connected_subsets(operands))
    for mask, subset in zip(masks, got):
        linked = {frozenset(s) for s in index.members(index.linked(mask))}
        assert linked == {
            s for s in operands if s not in subset and oracle.linked(subset, [s])
        }
