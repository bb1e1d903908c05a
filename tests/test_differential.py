"""The differential harness: the unpinned database and every pin against
the nested-loop oracle.

Hypothesis (derandomized) draws schemes of three to six relations: a
cyclic component (a triangle, a 4-cycle, a chorded 4-cycle or a
4-clique) beside an acyclic one (a chain or a star over other
attributes), either of which may be missing, and often a relation whose
scheme sits inside another's.  A state may be empty, hold one row, a
few or, in a database of at most five relations, many, or be skewed
towards one value of its first attribute; values mix ``True``, ``1``
and ``1.0``, which the library keeps apart.

For the unpinned database and each pin, and for every nonempty subset
``S``:

* ``tau_of(S)`` is the oracle's count before ``optimize()``, after it,
  and after ``Plan.execute()``, and again on a database whose first
  call is ``optimize()``, so the DP decides its cyclic components;
* ``len(join_of(S))`` on a fresh database is the same count;
* the executed plan returns the oracle's rows, and on the vector pin,
  which runs every step binary, the steps produce ``plan.cost`` tuples;
* the C1-C4 verdicts are the oracle's (:func:`tests.oracle.condition_instances`).

Two fixed examples make sure the unpinned database takes both branches
of each decision: a dense 4-cycle whose plan builds ``R_C``, and a
selective chain that runs Yannakakis.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.conditions.checks import check_condition
from repro.database import Database
from repro.query import JoinQuery
from repro.relational.attributes import AttributeSet
from repro.relational.relation import Relation
from repro.strategy.tree import parse_strategy, run
from tests import oracle

ENGINES = (None, "vector", "wcoj", "yannakakis")

CONDITIONS = ("C1", "C2", "C3", "C4")

#: The cyclic components drawn (over A-D), by name.
_CYCLIC = {
    "none": [],
    "triangle": ["AB", "BC", "AC"],
    "cycle4": ["AB", "BC", "CD", "AD"],
    "chorded4": ["AB", "BC", "CD", "AD", "AC"],
    "clique4": ["AB", "AC", "AD", "BC", "BD", "CD"],
}

#: The acyclic components drawn (over E-I), by name, longest first.
_ACYCLIC = {
    "chain": ["EF", "FG", "GH"],
    "star": ["EFG", "EH", "FI"],
}

#: Values that compare equal in Python but are three values here, and
#: more values for sparser states.
_VALUES = (0, 1, 2, True, 1.0)
_SPARSE = (3, 4, 5, 6, 7)


@st.composite
def databases(draw):
    """``(relations, operands)``: the drawn database and its oracle
    operands, keyed by schemes as frozensets of attribute names."""
    schemes = list(_CYCLIC[draw(st.sampled_from(sorted(_CYCLIC)))])
    contained = len(schemes) < 6 and draw(st.booleans())
    room = 6 - len(schemes) - contained
    size = draw(st.integers(max(0, 3 - len(schemes) - contained), min(3, room)))
    schemes += _ACYCLIC[draw(st.sampled_from(sorted(_ACYCLIC)))][:size]
    if contained:
        outer = draw(st.sampled_from(schemes))
        inner = "".join(sorted(outer)[: len(outer) - 1])
        if inner not in schemes:
            schemes.append(inner)
    # A database of at most five relations may be dense: 14-20 rows
    # per relation over five values.  Others hold 2-8 rows.
    if len(schemes) <= 5 and draw(st.booleans()):
        most, values = 20, _VALUES
    else:
        most, values = 8, draw(st.sampled_from([_VALUES, _VALUES + _SPARSE]))
    spec = []
    for text in schemes:
        names = AttributeSet(text).sorted()
        kind = draw(st.sampled_from(["empty", "single", "few", "few", "skewed"]))
        count = {"empty": 0, "single": 1}.get(kind) or draw(st.integers(most - 6, most))
        rows = draw(st.lists(
            st.tuples(*[st.sampled_from(values) for _ in names]),
            min_size=count, max_size=count,
        ))
        if kind == "skewed":
            hot = draw(st.sampled_from(values))
            rows = [(hot,) + row[1:] for row in rows[: count - 1]] + rows[count - 1:]
        spec.append((text, rows))
    return _case(spec)


def _case(spec):
    """``(relations, operands)`` from ``(scheme, rows)`` pairs, each row
    a tuple in sorted attribute order."""
    relations, operands = [], {}
    for index, (text, rows) in enumerate(spec):
        names = AttributeSet(text).sorted()
        dicts = [dict(zip(names, row)) for row in rows]
        relations.append(Relation.from_dicts(text, dicts, name=f"R{index}"))
        operands[frozenset(names)] = (names, dicts)
    return relations, operands


def _dense_cycle4():
    """A 4-cycle whose pairs stay small while its 3-paths grow, so the
    cyclic rule keeps the DP's plan (I < min(U, 0.45 AGM))."""
    rng = random.Random(0)
    return _case(
        (text, [(rng.randrange(6), rng.randrange(6)) for _ in range(20)])
        for text in ("AB", "BC", "CD", "AD")
    )


def _selective_chain():
    """A chain whose every step matches many rows but whose join is
    empty, so rho reaches RHO_STAR and Yannakakis runs unpinned."""
    spikes = range(1, 7)
    return _case([
        ("EF", [(i, 0) for i in spikes]),
        ("FG", [(0, i) for i in spikes] + [(i, 0) for i in spikes]),
        ("GH", [(0, i) for i in spikes]),
    ])


def _oracle(index, operands):
    """The oracle's join of every nonempty subset mask of ``index``,
    each built from the subset without its highest relation."""
    joins = {}
    for mask in range(1, index.full + 1):
        high = 1 << (mask.bit_length() - 1)
        top = operands[frozenset(index.schemes[mask.bit_length() - 1])]
        rest = mask ^ high
        joins[mask] = oracle.join_all([top]) if not rest else oracle.join(joins[rest], top)
    return joins


def _taus(db):
    return {mask: db.tau_of_mask(mask) for mask in range(1, db.scheme.subset_index().full + 1)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(databases())
@example(_dense_cycle4())
@example(_selective_chain())
def test_every_engine_matches_the_oracle(case):
    relations, operands = case
    index = Database(relations).scheme.subset_index()
    joins = _oracle(index, operands)
    taus = {mask: len(rows) for mask, (_, rows) in joins.items()}
    full = joins[index.full]
    bits = {frozenset(s): index.bit_of[s] for s in index.schemes}

    def oracle_tau(subset):
        return taus[sum(bits[s] for s in subset)]

    verdicts = {
        name: all(holds for *_, holds in oracle.condition_instances(
            name, list(operands), oracle_tau))
        for name in CONDITIONS
    }
    for engine in ENGINES:
        # Counted first, then planned and executed on the warm caches.
        db = Database(relations, engine=engine)
        assert _taus(db) == taus, engine
        query = JoinQuery(db)
        plan = query.optimize()
        assert _taus(db) == taus, engine
        oracle.assert_matches(query.execute(plan), full)
        assert _taus(db) == taus, engine

        # Planned first: the DP decides the cyclic components.
        db = Database(relations, engine=engine)
        plan = JoinQuery(db).optimize()
        oracle.assert_matches(plan.execute(), full)
        assert _taus(db) == taus, engine
        if engine == "vector":
            # The same plan, run step by step on an empty join memo.
            assert all(record.engine == "plan" for record in plan.execution)
            fresh = Database(relations, engine=engine)
            produced = []

            def memo(db, key, compute=None):
                state = Database._join_memo(db, key, compute)
                produced.append(len(state))
                return state

            strategy = parse_strategy(fresh, plan.strategy.describe())
            oracle.assert_matches(run(strategy, None, memo), full)
            assert sum(produced) == plan.cost

        db = Database(relations, engine=engine)
        joined = {mask: len(db.join_of(index.members(mask))) for mask in taus}
        assert joined == taus, engine

        db = Database(relations, engine=engine)
        for name in CONDITIONS:
            assert check_condition(db, name).holds == verdicts[name], (engine, name)


def test_the_fixed_examples_take_both_branches():
    for (relations, _), engine in (
        (_dense_cycle4(), "plan"),
        (_selective_chain(), "yannakakis"),
    ):
        (record,) = JoinQuery(Database(relations)).optimize().execution
        assert record.engine == engine, record
