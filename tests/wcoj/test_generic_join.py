"""Byte-identity of the Generic-Join engine against the binary
pipeline, plus its telemetry (counters and per-attribute spans)."""

import random

import pytest

import repro.obs as obs
from repro.database import Database
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.columnar import ColumnarTable
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.wcoj import generic_count, generic_join
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    generate_database,
    generate_spiked_cycle,
    star_scheme,
)

_SHAPES = {
    "chain": chain_scheme,
    "star": star_scheme,
    "cycle": cycle_scheme,
    "clique": clique_scheme,
}


def _identical(left, right):
    """Byte identity: same canonical column order, same interned ids."""
    lt, rt = left._table(), right._table()
    return lt.order == rt.order and lt.rows == rt.rows


def _both_engines(relations):
    vector = Database(relations, engine="vector").evaluate()
    wcoj = Database(relations, engine="wcoj").evaluate()
    return vector, wcoj


class TestByteIdentityOnGeneratedWorkloads:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workloads(self, shape, seed):
        rng = random.Random(seed)
        db = generate_database(
            _SHAPES[shape](4), rng, WorkloadSpec(size=25, domain=5)
        )
        vector, wcoj = _both_engines(db.relations())
        assert _identical(vector, wcoj)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_spiked_cycles(self, n):
        relations = generate_spiked_cycle(n, 21).relations()
        vector, wcoj = _both_engines(relations)
        assert _identical(vector, wcoj)
        if n == 3:
            # Triangle output: all-zero plus one nonzero per coordinate.
            m = (21 - 1) // 2
            assert len(wcoj) == 1 + 3 * m

    def test_skewed_cycle(self):
        rng = random.Random(5)
        db = generate_database(
            cycle_scheme(5), rng, WorkloadSpec(size=40, domain=8, skew=1.0)
        )
        vector, wcoj = _both_engines(db.relations())
        assert _identical(vector, wcoj)

    def test_empty_relation_empties_the_join(self):
        relations = list(generate_spiked_cycle(3, 11).relations())
        empty = relations[0].scheme
        from repro.relational.relation import Relation

        relations[0] = Relation.from_tuples(
            empty, [], order=relations[0]._table().order, name="R1"
        )
        vector, wcoj = _both_engines(relations)
        assert len(wcoj) == 0
        assert _identical(vector, wcoj)


class TestByteIdentityOnPaperExamples:
    @pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex3", "ex4", "ex5"])
    def test_examples(self, fixture, request):
        db = request.getfixturevalue(fixture)
        vector, wcoj = _both_engines(db.relations())
        assert _identical(vector, wcoj)

    def test_subset_joins_agree(self, ex1):
        vector = Database(ex1.relations(), engine="vector")
        wcoj = Database(ex1.relations(), engine="wcoj")
        for subset in ex1.scheme.subsets():
            if not subset.is_connected():
                continue
            schemes = subset.sorted_schemes()
            assert _identical(vector.join_of(schemes), wcoj.join_of(schemes))


class TestTelemetry:
    def test_counters_and_spans(self):
        relations = generate_spiked_cycle(3, 21).relations()
        with obs.observed():
            result = Database(relations, engine="wcoj").evaluate()
            registry = get_registry()
            assert registry.counter("wcoj.joins").value(mode="join") == 1
            assert registry.counter("wcoj.output_tuples").value() == len(result)
            order = result._table().order
            intersections = registry.counter("wcoj.intersections")
            for attr in order:
                assert intersections.value(attribute=attr) >= 1
            spans = get_tracer().spans_named("wcoj.attr")
            assert {s.attributes["attribute"] for s in spans} == set(order)
            for span in spans:
                assert span.attributes["frontier"] >= 1
                assert "expanded" in span.attributes

    def test_exact_counts_per_attribute(self):
        # A fixed 4-cycle; the figures are the 8.0.0 kernel's, which
        # metered row by row.  Counting expands the same four levels.
        db = generate_database(
            cycle_scheme(4), random.Random(7), WorkloadSpec(size=40, domain=6)
        )
        tables = [rel._table() for rel in db.relations()]
        registry = get_registry()

        def per_attribute(name):
            series = registry.counter(name).series()
            return {dict(labels)["attribute"]: n for labels, n in series.items()}

        for kernel in (generic_join, generic_count):
            obs.reset()
            with obs.observed():
                kernel(tables)
            assert per_attribute("wcoj.intersections") == {
                "A": 1, "B": 6, "C": 22, "D": 84
            }
            assert per_attribute("wcoj.candidates") == {
                "A": 6, "B": 22, "C": 84, "D": 283
            }
            assert registry.counter("wcoj.output_tuples").series() == {(): 222}

    def test_dormant_by_default(self):
        relations = generate_spiked_cycle(3, 11).relations()
        Database(relations, engine="wcoj").evaluate()
        # Outside observed() the registry records nothing.
        assert get_registry().counter("wcoj.joins").series() == {}

    def test_acyclic_subsets_stay_on_the_binary_path(self, chain3):
        with obs.observed():
            wcoj = Database(chain3.relations(), engine="wcoj")
            result = wcoj.evaluate()
            assert get_registry().counter("wcoj.joins").series() == {}
        vector = Database(chain3.relations(), engine="vector").evaluate()
        assert _identical(vector, result)

    def test_count_runs_carry_their_mode_and_count_the_tau(self):
        db = generate_database(
            clique_scheme(4), random.Random(2), WorkloadSpec(size=20, domain=3)
        )
        tables = [rel._table() for rel in db.relations()[:3]]
        with obs.observed():
            tau = generic_count(tables)
            registry = get_registry()
            assert registry.counter("wcoj.joins").series() == {
                (("mode", "count"),): 1
            }
            # On a count run the output is the counted tau itself.
            assert registry.counter("wcoj.output_tuples").value() == tau
        assert tau == len(generic_join(tables).rows)


class TestOutputIsBornAsColumns:
    """The expansion hands over the columns it built: no row tuple and
    no row set exists until one is asked for."""

    @staticmethod
    def _tables():
        db = generate_database(
            cycle_scheme(4), random.Random(7), WorkloadSpec(size=40, domain=6)
        )
        return [rel._table() for rel in db.relations()]

    def test_columns_are_the_expansions_lists(self):
        result = generic_join(self._tables())
        assert result._rows is None and result._rowlist is None
        columns = result.columns()
        assert set(columns) == set(result.order) == set("ABCD")
        assert all(type(col) is list and len(col) == 222 for col in columns.values())
        # Nothing was derived by reading the columns.
        assert result._rows is None and result._rowlist is None
        rows = result.rows
        assert len(rows) == len(result) == 222
        assert result.row_list() == list(zip(*(columns[a] for a in result.order)))

    @pytest.mark.parametrize("empty", [False, True])
    def test_an_empty_join_is_born_as_columns_too(self, empty):
        tables = self._tables()
        if empty:
            # An empty input: the expansion never starts.
            tables[0] = ColumnarTable(tables[0].order)
        else:
            # Disjoint values: the frontier dies at the second level.
            first = tables[0]
            tables[0] = ColumnarTable(
                first.order, [(a, b + 10**6) for a, b in first.row_list()]
            )
        result = generic_join(tables)
        assert len(result) == 0 and result._rows is None
        assert result.order == ("A", "B", "C", "D")
        assert result.rows == frozenset()


class TestCountingMemoContract:
    """Proper cyclic subsets are counted, never joined; the whole
    database stays materialized and memoized for ``Plan.execute``."""

    @staticmethod
    def _clique(n, engine):
        db = generate_database(
            clique_scheme(n), random.Random(n), WorkloadSpec(size=20, domain=3)
        )
        return Database(db.relations(), engine=engine)

    @pytest.mark.parametrize("engine", ["wcoj", "yannakakis"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_proper_subsets_leave_no_join_entries(self, engine, n):
        db = self._clique(n, engine)
        proper = [s for s in db.connected_subsets() if len(s) < n]
        cyclic = [s for s in proper if not is_alpha_acyclic(s)]
        assert cyclic
        with obs.observed():
            taus = [db.tau_of(s) for s in proper]
            assert get_registry().counter("wcoj.joins").series() == {
                (("mode", "count"),): len(cyclic)
            }
        assert db.cache_stats().join_entries == 0
        vector = self._clique(n, "vector")
        assert taus == [vector.tau_of(s) for s in proper]

    @pytest.mark.parametrize("engine", ["wcoj", "yannakakis"])
    def test_whole_database_stays_memoized(self, engine):
        db = self._clique(4, engine)
        tau = db.tau_of(None)
        before = db.cache_stats()
        assert before.join_entries == 1
        result = db.evaluate()
        assert db.cache_stats().delta(before).join_hits == 1
        assert len(result) == tau
