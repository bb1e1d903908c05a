"""Cyclic components: the router's executor choice, checked against the
nested-loop oracle.

Random databases are cycles of three to five relations, 4-cliques and a
chorded 4-cycle, alone or beside a chain (an unconnected scheme), with
empty, single-row and few-row relations over small domains that mix
``True``, ``1`` and ``1.0``.  An unpinned :class:`JoinQuery` routes
each cyclic component while the DP asks for its tau; its rows must be
the oracle's join, its plan tau the vector pin's, and each component's
record must name the executor the rule gives from the record's own I,
U and AGM.  Both executors must occur.

The pins fix the decision on the instances the rule was sized on: the
e2e ``cyclic_join`` members (their sizes, from the e2e data streams)
and BENCH_wcoj's three legs.  A ``wcoj`` pin keeps Generic Join.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.optimizer.dp import optimize_dp
from repro.optimizer.route import AGM_SHARE
from repro.query import JoinQuery
from repro.relational.attributes import AttributeSet
from repro.relational.relation import Relation
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    generate_database,
    generate_spiked_cycle,
)
from tests import oracle

#: The cyclic shapes drawn, by name.
_CYCLIC = {
    "cycle3": cycle_scheme(3),
    "cycle4": cycle_scheme(4),
    "cycle5": cycle_scheme(5),
    "clique4": clique_scheme(4),
    "chorded4": cycle_scheme(4) + [AttributeSet("AC")],
}

#: Values that compare equal in Python but are three values here.
_VALUES = (0, 1, 2, True, 1.0)

#: Rows drawn per relation of a database (before duplicates collapse);
#: any relation may hold none or one instead.
_SIZES = (3, 20)


def _rule(record):
    bound = AGM_SHARE * record.agm
    if record.upper is not None:
        bound = min(record.upper, bound)
    return "wcoj" if record.inner >= bound else "plan"


@st.composite
def databases(draw):
    """``(relations, operands)``: a cyclic component, maybe beside a
    chain, and the oracle operands of the same raw rows."""
    schemes = list(draw(st.sampled_from(sorted(_CYCLIC.items())))[1])
    if draw(st.booleans()):
        schemes += [AttributeSet(f"y{a}" for a in s) for s in chain_scheme(draw(st.integers(2, 3)))]
    values = draw(st.sampled_from([_VALUES[:3], _VALUES]))
    common = draw(st.sampled_from(_SIZES))
    relations, operands = [], []
    for index, scheme in enumerate(schemes):
        names = scheme.sorted()
        size = draw(st.sampled_from([common] * 3 + [0, 1]))
        rows = draw(st.lists(
            st.tuples(*[st.sampled_from(values) for _ in names]),
            min_size=size, max_size=size,
        ))
        dicts = [dict(zip(names, row)) for row in rows]
        relations.append(Relation.from_dicts(scheme, dicts, name=f"R{index}"))
        operands.append((names, dicts))
    return relations, operands


def test_routed_components_match_the_oracle():
    engines = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(databases())
    def check(case):
        relations, operands = case
        query = JoinQuery(Database(relations))
        plan = query.optimize()
        oracle.assert_matches(query.execute(plan), oracle.join_all(operands))
        assert plan.cost == optimize_dp(Database(relations, engine="vector")).cost
        for record in plan.execution:
            if not record.cyclic or record.rho is None:
                continue
            assert record.inner == record.plan_tau - record.output
            assert record.upper is None or record.upper >= record.output
            assert record.engine == _rule(record), record
            engines.add(record.engine)

    check()
    assert engines == {"wcoj", "plan"}


def _decision(db):
    """``(engine, I, U)`` of an unpinned query's one component."""
    plan = JoinQuery(Database(db.relations())).optimize()
    (record,) = plan.execution
    return record.engine, record.inner, record.upper


def _e2e(label, schemes, size, domain):
    # The e2e pool draws its values from this stream and renames them by
    # a bijection, so every join has the e2e member's size.
    return generate_database(
        schemes,
        random.Random(f"cyclic_join/{label}/data"),
        WorkloadSpec(size=size, domain=domain),
    )


class TestDecisionPins:
    @pytest.mark.parametrize(
        "label, make, decision",
        [
            ("spiked_triangle200", lambda: generate_spiked_cycle(3, 200),
             ("wcoj", 10099, 10099)),
            ("cycle3", lambda: _e2e("cycle3", cycle_scheme(3), 600, 60),
             ("wcoj", 5164, 5164)),
            ("cycle4", lambda: _e2e("cycle4", cycle_scheme(4), 150, 20),
             ("plan", 1559, 4751)),
            ("spiked_triangle1400", lambda: generate_spiked_cycle(3, 1400),
             ("wcoj", 490699, 490699)),
            ("cycle5", lambda: _e2e("cycle5", cycle_scheme(5), 150, 15),
             ("plan", 6745, 38983)),
            ("clique5", lambda: _e2e("clique5", clique_scheme(5), 35, 4),
             ("wcoj", 775, 257)),
            ("clique4", lambda: _e2e("clique4", clique_scheme(4), 250, 6),
             ("plan", 7242, 14480)),
        ],
    )
    def test_e2e_members(self, label, make, decision):
        assert _decision(make()) == decision

    def test_bench_wcoj_legs(self):
        clique5 = generate_database(
            clique_scheme(5), random.Random(11), WorkloadSpec(size=120, domain=4)
        )
        assert _decision(generate_spiked_cycle(3, 200))[0] == "wcoj"
        assert _decision(generate_spiked_cycle(4, 200)) == ("wcoj", 20198, 29800)
        assert _decision(clique5) == ("plan", 15955, 17665)
        plan = JoinQuery(Database(clique5.relations())).optimize()
        (line,) = [line for line in plan.explain().splitlines() if "execute:" in line]
        assert line.startswith(
            "execute: {R1, R2, R3, R4, R5} -> plan (I < min(U, 0.45 AGM); "
            "I 15955, U 17665, AGM 83665.6; rho 3.17"
        )

    def test_a_wcoj_pin_keeps_generic_join(self):
        cycle4 = _e2e("cycle4", cycle_scheme(4), 150, 20)
        db = Database(cycle4.relations(), engine="wcoj")
        plan = JoinQuery(db).optimize()
        assert [(r.engine, r.reason, r.inner) for r in plan.execution] == [
            ("wcoj", "cyclic", None)
        ]
        assert db.decision(db.scheme.subset_index().full) is None

    def test_the_rule_reads_agm_share(self):
        assert AGM_SHARE == 0.45

    def test_the_plan_builds_r_c_once(self):
        # The plan's steps build R_C while the DP asks for its tau, so
        # execution reads it back from the memo.
        cycle4 = _e2e("cycle4", cycle_scheme(4), 150, 20)
        query = JoinQuery(Database(cycle4.relations()))
        plan = query.optimize()
        db = query.database
        assert db.decision(db.scheme.subset_index().full).engine == "plan"
        (record,) = plan.execution
        stats = db.cache_stats()
        result = plan.execute()
        after = db.cache_stats()
        assert (after.join_hits, after.computed) == (stats.join_hits + 1, stats.computed)
        assert result == Database(cycle4.relations(), engine="vector").evaluate()
