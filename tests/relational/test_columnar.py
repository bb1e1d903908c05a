"""Property tests for the columnar join kernel.

Two families of guarantees:

* **oracle equivalence** -- the kernel and the nested-loop oracle
  (``tests/oracle.py``) produce the same scheme, rows, and tau for every
  algebra operation, across randomized schemes and densities including
  Cartesian products, empty inputs, and skewed keys;
* **tau-only counting** -- ``Database.tau_of`` (the count-without-
  materialize path) agrees with ``len(join_of(...))`` on every paper
  workload and on randomized chains/stars/cycles, and counts survive
  join-cache eviction via the bounded tau-cache.
"""

import random

import pytest

from repro.database import ENGINES, Database
from repro.errors import SchemaError
from repro.relational.columnar import ColumnarTable, intern_value, join_tables
from repro.relational.relation import Relation, relation
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    cycle_scheme,
    generate_database,
    star_scheme,
)
from repro.workloads.paper import (
    example1,
    example2_c2_only,
    example3,
    example4,
    example5,
)
from tests import oracle

PAPER_WORKLOADS = [example1, example2_c2_only, example3, example4, example5]


def _random_relation(rng, scheme, size, domain):
    """A random relation over ``scheme`` built through the public Row API,
    and the oracle operand holding the same raw rows."""
    order = sorted(scheme)
    rows = [{attr: rng.randint(1, domain) for attr in order} for _ in range(size)]
    return Relation.from_dicts(scheme, rows), (scheme, rows)


def _relation(scheme, tuples=()):
    """``relation(scheme, tuples)`` and the oracle operand of the same tuples."""
    return relation(scheme, tuples), oracle.operand(scheme, tuples)


class TestEngineSwitch:
    def test_unknown_engine_rejected(self):
        # The removed kernels are not engines; the error names the three
        # that are.
        assert ENGINES == ("vector", "wcoj", "yannakakis")
        for name in ("legacy", "columnar", "vectorized"):
            with pytest.raises(SchemaError) as excinfo:
                Database([relation("AB", [(1, 2)])], engine=name)
            for engine in ENGINES:
                assert f"'{engine}'" in str(excinfo.value)

    def test_use_legacy_engine_is_gone(self):
        # The deprecated shim and the process-global engine switch were
        # removed; Database(engine=...) is the only engine selector.
        import repro.relational as relational
        import repro.relational.columnar as columnar

        removed = (
            "use_legacy_engine",
            "set_engine",
            "using_engine",
            "current_engine",
            "set_kernel_enabled",
            "kernel_enabled",
        )
        for module in (columnar, relational):
            for name in removed:
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in module.__all__


class TestJoinEquivalence:
    """Kernel vs the oracle across random schemes and densities."""

    # (shared attrs, left-only, right-only) scheme shapes.
    SHAPES = [
        ("B", "A", "C"),
        ("BC", "A", "D"),
        ("", "AB", "CD"),  # disjoint: Cartesian product
        ("ABC", "", ""),  # identical schemes
        ("B", "A", ""),  # right is a subset of the join attrs + B
    ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shared,left_only,right_only", SHAPES)
    def test_join_matches_legacy(self, seed, shared, left_only, right_only):
        rng = random.Random(seed)
        left_scheme = set(shared) | set(left_only) or {"X"}
        right_scheme = set(shared) | set(right_only) or {"X"}
        size = rng.randint(0, 25)
        domain = rng.choice([2, 5, 30])  # dense, medium, sparse keys
        left, lraw = _random_relation(rng, left_scheme, size, domain)
        right, rraw = _random_relation(rng, right_scheme, rng.randint(0, 25), domain)
        oracle.assert_matches(left.join(right), oracle.join(lraw, rraw))

    @pytest.mark.parametrize("seed", range(5))
    def test_skewed_keys(self, seed):
        # One hot key value dominating both sides: the worst case for
        # bucket fan-out and dedup.
        rng = random.Random(100 + seed)
        rows_l = [(1, rng.randint(1, 50)) for _ in range(30)]
        rows_r = [(1, rng.randint(1, 50)) for _ in range(30)]
        rows_l += [(rng.randint(2, 5), rng.randint(1, 50)) for _ in range(5)]
        rows_r += [(rng.randint(2, 5), rng.randint(1, 50)) for _ in range(5)]
        left, lraw = _relation("AB", rows_l)
        right, rraw = _relation("AC", rows_r)
        oracle.assert_matches(left.join(right), oracle.join(lraw, rraw))

    def test_empty_inputs(self):
        empty = _relation("AB")
        nonempty = _relation("BC", [(1, 2), (3, 4)])
        for (l, lraw), (r, rraw) in [
            (empty, nonempty),
            (nonempty, empty),
            (empty, empty),
        ]:
            kernel = l.join(r)
            oracle.assert_matches(kernel, oracle.join(lraw, rraw))
            assert len(kernel) == 0

    def test_empty_cartesian_product(self):
        empty = relation("AB")
        other = relation("CD", [(1, 2)])
        assert len(empty.join(other)) == 0
        assert len(other.join(empty)) == 0

    def test_non_integer_values(self):
        left, lraw = _relation("AB", [("p", None), ("q", (1, 2))])
        right, rraw = _relation("BC", [(None, frozenset({7})), ((1, 2), "x")])
        kernel = left.join(right)
        oracle.assert_matches(kernel, oracle.join(lraw, rraw))
        assert len(kernel) == 2


class TestOtherOperators:
    @pytest.mark.parametrize("seed", range(5))
    def test_project_semijoin_antijoin_match_legacy(self, seed):
        rng = random.Random(200 + seed)
        left, lraw = _random_relation(rng, {"A", "B", "C"}, 20, 4)
        right, rraw = _random_relation(rng, {"B", "D"}, 15, 4)
        oracle.assert_matches(left.project("AB"), oracle.project(lraw, "AB"))
        oracle.assert_matches(left.semijoin(right), oracle.semijoin(lraw, rraw))
        oracle.assert_matches(left.antijoin(right), oracle.antijoin(lraw, rraw))

    def test_semijoin_disjoint_schemes(self):
        left = relation("AB", [(1, 1), (2, 2)], name="L")
        assert left.semijoin(relation("CD", [(9, 9)])) == left
        assert len(left.semijoin(relation("CD"))) == 0
        assert len(left.antijoin(relation("CD", [(9, 9)]))) == 0
        assert left.antijoin(relation("CD")) == left

    @pytest.mark.parametrize("seed", range(5))
    def test_set_ops_match_legacy(self, seed):
        rng = random.Random(300 + seed)
        a, araw = _random_relation(rng, {"A", "B"}, 15, 3)
        b, braw = _random_relation(rng, {"A", "B"}, 15, 3)
        # Exercise the id-set fast path: operands fresh from the kernel.
        full, fraw = _relation("AB", [(v, w) for v in range(1, 4) for w in range(1, 4)])
        ka, kb = a.join(full), b.join(full)
        scheme, oa = oracle.join(araw, fraw)
        _, ob = oracle.join(braw, fraw)
        oracle.assert_matches(ka | kb, (scheme, oa | ob))
        oracle.assert_matches(ka & kb, (scheme, oa & ob))
        oracle.assert_matches(ka - kb, (scheme, oa - ob))


class TestKernelInternals:
    def test_interning_is_stable(self):
        assert intern_value("same-value-sentinel") == intern_value(
            "same-value-sentinel"
        )

    def test_equal_numerics_of_different_types_get_distinct_ids(self):
        # Typed equality: True, 1 and 1.0 compare equal in Python but are
        # three values, so none joins another and each decodes as itself.
        ids = {intern_value(True), intern_value(1), intern_value(1.0)}
        assert len(ids) == 3
        assert intern_value((1, "a")) != intern_value((1.0, "a"))
        assert intern_value(frozenset({1})) != intern_value(frozenset({True}))
        assert intern_value(2) == intern_value(2)

    def test_join_tables_direct(self):
        a = ColumnarTable(
            ("A", "B"),
            [(intern_value(1), intern_value(10)), (intern_value(2), intern_value(20))],
        )
        b = ColumnarTable(
            ("B", "C"),
            [(intern_value(10), intern_value(7))],
        )
        out = join_tables(a, b)
        assert out.order == ("A", "B", "C")
        assert out.rows == {(intern_value(1), intern_value(10), intern_value(7))}

    def test_lazy_rows_materialize_once(self):
        r = relation("AB", [(1, 2)]).join(relation("BC", [(2, 3)]))
        assert r._rows is None  # kernel result: no Rows yet
        assert len(r) == 1  # tau without materialization
        assert r._rows is None
        rows = r.rows
        assert rows is r.rows  # cached
        (row,) = rows
        assert row["A"] == 1 and row["B"] == 2 and row["C"] == 3


class TestTauOnlyCounting:
    @pytest.mark.parametrize("make", PAPER_WORKLOADS)
    def test_paper_workloads(self, make):
        counted = make()
        materialized = make()
        for subset in counted.scheme.subsets():
            assert counted.tau_of(subset) == len(materialized.join_of(subset))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "shape", [lambda n: chain_scheme(n), lambda n: star_scheme(n), lambda n: cycle_scheme(n)]
    )
    def test_random_workloads(self, seed, shape):
        rng = random.Random(400 + seed)
        db = generate_database(
            shape(4), rng, WorkloadSpec(size=15, domain=4)
        )
        fresh = Database(db.relations())
        for subset in db.scheme.subsets():
            assert db.tau_of(subset) == len(fresh.join_of(subset))

    def test_tau_of_leaves_join_cache_empty(self, chain3):
        # The count route must not materialize acyclic subset joins.
        assert chain3.tau_of(["AB", "BC", "CD"]) == 3
        assert len(chain3._join_cache) == 0

    def test_unconnected_tau_is_product(self):
        db = Database(
            [
                relation("AB", [(1, 1), (2, 2), (3, 3)]),
                relation("CD", [(1, 1), (2, 2)]),
            ]
        )
        assert db.tau_of() == 6
        assert len(db._join_cache) == 0

    def test_cyclic_subset_falls_back_to_materialization(self):
        rng = random.Random(7)
        db = generate_database(cycle_scheme(3), rng, WorkloadSpec(size=10, domain=3))
        fresh = Database(db.relations())
        whole = list(db.scheme.schemes)
        assert db.tau_of(whole) == len(fresh.join_of(whole))

    def test_legacy_engine_counts_agree(self):
        # The paper's states are built through relation(), so the oracle
        # reads their decoded rows: this checks every counting path of
        # tau_of against nested loops.
        make = PAPER_WORKLOADS[0]
        kernel_db = make()
        states = {rel.scheme: (rel.scheme, rel.rows) for rel in make()}
        for subset in kernel_db.scheme.subsets():
            _, rows = oracle.join_all(states[s] for s in subset.sorted_schemes())
            assert kernel_db.tau_of(subset) == len(rows)
