"""End-to-end contract of the yannakakis engine: byte identity with the
binary pipeline everywhere, and per-subset routing on mixed databases."""

import random

import pytest

import repro.obs as obs
from repro.database import Database
from repro.obs.metrics import get_registry
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    generate_database,
    generate_foreign_key_chain,
    generate_selective_star,
    generate_spiked_cycle,
    star_scheme,
)
from repro.workloads.paper import (
    example1,
    example2_c2_only,
    example3,
    example4,
    example5,
)
from repro.yannakakis import yannakakis_join

PAPER_WORKLOADS = [example1, example2_c2_only, example3, example4, example5]


def _identical(left, right):
    lt, rt = left._table(), right._table()
    return lt.order == rt.order and lt.rows == rt.rows


def _random_db(shape, n, seed, size=18, domain=4):
    return generate_database(
        shape(n), random.Random(seed), WorkloadSpec(size=size, domain=domain)
    )


class TestByteIdentity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("shape", [chain_scheme, star_scheme])
    @pytest.mark.parametrize("seed", range(3))
    def test_acyclic_shapes(self, shape, n, seed):
        db = _random_db(shape, n, seed)
        expected = Database(db.relations(), engine="vector").evaluate()
        result = Database(db.relations(), engine="yannakakis").evaluate()
        assert _identical(expected, result)

    @pytest.mark.parametrize("make", PAPER_WORKLOADS)
    def test_paper_workloads(self, make):
        expected = Database(make().relations(), engine="vector").evaluate()
        result = Database(make().relations(), engine="yannakakis").evaluate()
        assert _identical(expected, result)

    def test_selective_star(self):
        db = generate_selective_star(3, 41)
        expected = Database(db.relations(), engine="vector").evaluate()
        result = Database(db.relations(), engine="yannakakis").evaluate()
        assert _identical(expected, result)
        assert len(result) == 1  # only the survivor row

    def test_fk_chain(self):
        db = generate_foreign_key_chain(5, random.Random(3), size=60)
        expected = Database(db.relations(), engine="vector").evaluate()
        with obs.observed():
            result = Database(db.relations(), engine="yannakakis").evaluate()
            # The reducer sweeps all four tree edges both ways:
            # 2 * (5 - 1) semijoins, with no state emptied on the way.
            registry = get_registry()
            assert registry.counter("yannakakis.semijoins").value() == 8
        assert _identical(expected, result)

    def test_empty_join_short_circuits(self, chain3):
        relations = list(chain3.relations())
        doomed = relations[0].select(lambda row: False)
        db = Database([doomed] + relations[1:], engine="yannakakis")
        assert len(db.evaluate()) == 0


class TestPerSubsetRouting:
    def test_cyclic_subset_runs_on_generic_join(self):
        # The yannakakis engine runs both multiway kernels: a cyclic
        # database still routes to the wcoj kernel.
        db = generate_spiked_cycle(3, 21)
        expected = Database(db.relations(), engine="vector").evaluate()
        with obs.observed():
            result = Database(db.relations(), engine="yannakakis").evaluate()
            registry = get_registry()
            assert registry.counter("wcoj.joins").value(mode="join") == 1
            assert registry.counter("yannakakis.joins").value() is None
        assert _identical(expected, result)

    def test_acyclic_subsets_stay_binary_under_wcoj(self, chain3):
        # PR-8 semantics preserved: the plain wcoj engine does not drag
        # acyclic subsets through the multiway path.
        with obs.observed():
            Database(chain3.relations(), engine="wcoj").evaluate()
            registry = get_registry()
            assert registry.counter("yannakakis.joins").value() is None
            assert registry.counter("wcoj.joins").series() == {}

    def test_acyclic_subset_runs_on_the_reducer(self):
        # Shared attributes repeat on both sides of every edge: no
        # semijoin removes a row, and the reducer still sweeps both ways.
        from repro.relational.relation import relation

        db = Database(
            [
                relation("AB", [(1, 1), (2, 1), (2, 2)], name="R1"),
                relation("BC", [(1, 1), (1, 2), (2, 1), (2, 2)], name="R2"),
                relation("CD", [(1, 5), (1, 6), (2, 5)], name="R3"),
            ],
            engine="yannakakis",
        )
        with obs.observed():
            db.evaluate()
            registry = get_registry()
            assert registry.counter("yannakakis.joins").value() == 1
            # 4 semijoins = both sweeps over the 3-node tree.
            assert registry.counter("yannakakis.semijoins").value() == 4
            assert registry.counter("yannakakis.output_tuples").value() >= 1

    def test_pinned_engine_bypasses_routing(self, chain3):
        # An explicit vector pin keeps even an acyclic database off the
        # multiway kernels entirely.
        with obs.observed():
            Database(chain3.relations(), engine="vector").evaluate()
            assert get_registry().counter("yannakakis.joins").value() is None


class TestMixedComponents:
    def _mixed_db(self, engine=None):
        # One cyclic component (the spiked triangle over A-C) next to one
        # acyclic chain component over D-G.
        from repro.relational.relation import relation

        relations = list(generate_spiked_cycle(3, 15).relations()) + [
            relation("DE", [(1, 1), (2, 2), (2, 3)], name="C1"),
            relation("EF", [(1, 4), (3, 5), (2, 4)], name="C2"),
            relation("FG", [(4, 1), (4, 2), (5, 9)], name="C3"),
        ]
        if engine is None:
            return Database(relations)
        return Database(relations, engine=engine)

    def test_router_wants_both_kernels(self):
        from repro.optimizer import EngineRouter

        routing = EngineRouter(self._mixed_db()).route()
        assert routing.effective == "yannakakis"
        assert routing.components == ((3, True), (3, False))

    def test_each_subset_runs_on_its_best_kernel(self):
        expected = self._mixed_db(engine="vector").evaluate()
        with obs.observed():
            result = self._mixed_db(engine="yannakakis").evaluate()
            registry = get_registry()
            assert registry.counter("wcoj.joins").value(mode="join") == 1
            assert registry.counter("yannakakis.joins").value() == 1
        assert _identical(expected, result)


class TestKernelDirect:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            yannakakis_join([])

    def test_empty_table_shortcut(self, chain3):
        tables = [rel._table() for rel in chain3.relations()]
        from repro.relational.columnar import ColumnarTable

        tables[1] = ColumnarTable(tables[1].order, frozenset())
        out = yannakakis_join(tables)
        assert len(out.rows) == 0
        assert out.order == ("A", "B", "C", "D")

