"""The vectorized kernel's contracts: agreement with the nested-loop
oracle, column caching, and the thread-safe interner.

The vector kernel (batch-at-a-time column pipelines) must agree with the
oracle in ``tests/oracle.py`` on every algebra operation -- same scheme,
same decoded row set -- across randomized relations including the
no-common-attribute product path, empty inputs, and single-row tables.
The oracle reads the raw values each test built, never interned ids, so
the comparison covers the interner too.
"""

import os
import random
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.relational.columnar import (
    ColumnarTable,
    antijoin_tables,
    decode_row,
    intern_value,
    join_tables,
    project_table,
    semijoin_tables,
    value_of,
)
from repro.relational.relation import Relation, Row, relation
from tests import oracle


def _random_relation(rng, scheme, size, domain):
    """A random relation over ``scheme`` and the oracle operand holding
    the same raw rows."""
    order = sorted(scheme)
    rows = [{attr: rng.randint(1, domain) for attr in order} for _ in range(size)]
    return Relation.from_dicts(scheme, rows), (scheme, rows)


def _relation(scheme, tuples=()):
    """``relation(scheme, tuples)`` and the oracle operand of the same tuples."""
    return relation(scheme, tuples), oracle.operand(scheme, tuples)


# Scheme shapes: (shared attrs, left-only, right-only).  The disjoint
# shape exercises the Cartesian-product path that has no hash probe.
SHAPES = [
    ("B", "A", "C"),
    ("BC", "A", "D"),  # composite join key
    ("", "AB", "CD"),  # no common attribute: product
    ("ABC", "", ""),  # identical schemes: join = intersection
    ("B", "A", ""),  # right scheme contained in left's closure
]

SIZES = [0, 1, 7, 24]  # empty, single-row, small, medium


class TestThreeEngineEquivalence:
    """The vector kernel against the oracle on every algebra operation."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shared,left_only,right_only", SHAPES)
    def test_join(self, seed, shared, left_only, right_only):
        rng = random.Random(1000 + seed)
        left_scheme = set(shared) | set(left_only) or {"X"}
        right_scheme = set(shared) | set(right_only) or {"X"}
        size = rng.choice(SIZES)
        domain = rng.choice([2, 4, 20])
        left, lraw = _random_relation(rng, left_scheme, size, domain)
        right, rraw = _random_relation(rng, right_scheme, rng.choice(SIZES), domain)
        oracle.assert_matches(left.join(right), oracle.join(lraw, rraw))

    @pytest.mark.parametrize("seed", range(6))
    def test_semijoin_and_antijoin(self, seed):
        rng = random.Random(2000 + seed)
        left, lraw = _random_relation(rng, {"A", "B", "C"}, rng.choice(SIZES), 4)
        right, rraw = _random_relation(rng, {"B", "C", "D"}, rng.choice(SIZES), 4)
        oracle.assert_matches(left.semijoin(right), oracle.semijoin(lraw, rraw))
        oracle.assert_matches(left.antijoin(right), oracle.antijoin(lraw, rraw))

    @pytest.mark.parametrize("seed", range(6))
    def test_project(self, seed):
        rng = random.Random(3000 + seed)
        rel, raw = _random_relation(rng, {"A", "B", "C", "D"}, rng.choice(SIZES), 3)
        for wanted in ("A", "AB", "ABD", "ABCD"):
            oracle.assert_matches(rel.project(wanted), oracle.project(raw, wanted))

    def test_single_row_tables(self):
        left, lraw = _relation("AB", [(1, 2)])
        right, rraw = _relation("BC", [(2, 3)])
        miss, mraw = _relation("BC", [(9, 9)])
        oracle.assert_matches(left.join(right), oracle.join(lraw, rraw))
        oracle.assert_matches(left.join(miss), oracle.join(lraw, mraw))
        oracle.assert_matches(left.semijoin(miss), oracle.semijoin(lraw, mraw))
        oracle.assert_matches(left.antijoin(miss), oracle.antijoin(lraw, mraw))

    def test_empty_inputs(self):
        empty, eraw = _relation("AB")
        nonempty, nraw = _relation("BC", [(1, 2), (3, 4)])
        for result, expected in (
            (empty.join(nonempty), oracle.join(eraw, nraw)),
            (nonempty.join(empty), oracle.join(nraw, eraw)),
            (empty.join(empty), oracle.join(eraw, eraw)),
            (nonempty.semijoin(empty), oracle.semijoin(nraw, eraw)),
            (nonempty.antijoin(empty), oracle.antijoin(nraw, eraw)),
            (empty.project("A"), oracle.project(eraw, "A")),
        ):
            oracle.assert_matches(result, expected)

    def test_chained_joins_stay_identical(self):
        # Chains keep intermediate results in their born-columnar form;
        # the final relation must still match.
        rng = random.Random(4242)
        pairs = [
            _random_relation(rng, {chr(65 + i), chr(66 + i)}, 15, 3)
            for i in range(4)
        ]
        acc = pairs[0][0]
        for nxt, _ in pairs[1:]:
            acc = acc.join(nxt)
        oracle.assert_matches(acc, oracle.join_all(raw for _, raw in pairs))


def _columns_are_tuples(result):
    return all(type(col) is tuple for col in result._table().columns().values())


class TestGatherSizes:
    """The output gather, one ``itemgetter`` per side, at the output
    sizes it treats apart (none, one) and just past them, and on
    fan-out, composite keys, chains and products -- against the oracle."""

    LEFT = [(1, 2), (3, 4), (5, 6), (7, 4)]

    @pytest.mark.parametrize(
        "right_rows,size",
        [
            ([(9, 1), (8, 2), (0, 3)], 0),
            ([(2, 1), (8, 2), (0, 3)], 1),
            ([(2, 1), (6, 2), (0, 3)], 2),
        ],
    )
    @pytest.mark.parametrize("swap", [False, True])
    def test_multi_row_inputs_joining_to_few_rows(self, right_rows, size, swap):
        left, lraw = _relation("AB", self.LEFT)
        right, rraw = _relation("BC", right_rows)
        if swap:  # the other side builds the hash table
            left, lraw, right, rraw = right, rraw, left, lraw
        result = left.join(right)
        oracle.assert_matches(result, oracle.join(lraw, rraw))
        assert len(result) == size
        assert _columns_are_tuples(result)

    @pytest.mark.parametrize("swap", [False, True])
    def test_fan_out_on_both_sides(self, swap):
        # B = 4: two left rows meet three right rows; B = 2: two meet two.
        left, lraw = _relation("AB", self.LEFT + [(9, 2)])
        right, rraw = _relation(
            "BC", [(4, 1), (4, 2), (4, 3), (2, 5), (2, 6), (8, 7)]
        )
        if swap:
            left, lraw, right, rraw = right, rraw, left, lraw
        result = left.join(right)
        oracle.assert_matches(result, oracle.join(lraw, rraw))
        assert len(result) == 2 * 3 + 2 * 2

    def test_composite_keys_with_fan_out(self):
        left, lraw = _relation(
            "ABC", [(1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 2)]
        )
        right, rraw = _relation(
            "BCD", [(1, 1, 7), (1, 1, 8), (2, 2, 9), (1, 2, 6), (3, 3, 5)]
        )
        result = left.join(right)
        oracle.assert_matches(result, oracle.join(lraw, rraw))
        assert len(result) == 2 * 2 + 2 * 1 + 1 * 1

    def test_three_joins_fed_by_tuple_columns(self):
        rng = random.Random(77)
        pairs = [
            _relation(
                chr(65 + i) + chr(66 + i),
                [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(8)],
            )
            for i in range(4)
        ]
        acc = pairs[0][0]
        for nxt, _ in pairs[1:]:
            acc = acc.join(nxt)
            assert _columns_are_tuples(acc)
        assert len(acc) > 1
        oracle.assert_matches(acc, oracle.join_all(raw for _, raw in pairs))

    def test_cartesian_product(self):
        left, lraw = _relation("AB", self.LEFT[:3])
        right, rraw = _relation("CD", [(1, 2), (3, 4)])
        result = left.join(right)
        oracle.assert_matches(result, oracle.join(lraw, rraw))
        assert len(result) == 6
        assert _columns_are_tuples(result)


def _table(order, tuples):
    """A columnar table over ``order`` holding the interned ``tuples``."""
    return ColumnarTable(order, [tuple(map(intern_value, values)) for values in tuples])


def _decoded(table):
    """A table's rows decoded back to values."""
    return {Row(dict(decode_row(table.order, idrow))) for idrow in table.rows}


class TestTableLevelKernels:
    """`join_tables` and friends, called on tables directly, against the
    oracle."""

    def _tuples(self, seed):
        rng = random.Random(seed)
        rows_l = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)]
        rows_r = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)]
        return rows_l, rows_r

    @pytest.mark.parametrize("seed", range(4))
    def test_ops_match_classic(self, seed):
        rows_l, rows_r = self._tuples(5000 + seed)
        a, b = _table(("A", "B"), rows_l), _table(("B", "C"), rows_r)
        lraw, rraw = oracle.operand("AB", rows_l), oracle.operand("BC", rows_r)
        for op, reference in (
            (join_tables, oracle.join),
            (semijoin_tables, oracle.semijoin),
            (antijoin_tables, oracle.antijoin),
        ):
            scheme, rows = reference(lraw, rraw)
            out = op(a, b)
            assert out.order == tuple(sorted(scheme))
            assert _decoded(out) == rows
        out = project_table(a, ("A",))
        assert (frozenset(out.order), _decoded(out)) == oracle.project(lraw, "A")


class TestColumnCaching:
    def test_columns_cached_across_calls(self):
        table = relation("AB", [(1, 2), (3, 4)])._table()
        assert table.columns() is table.columns()
        assert table.column("A") is table.column("A")

    def test_decoded_column_cached(self):
        table = relation("AB", [(1, 2), (3, 4)])._table()
        assert table.decoded_column("A") is table.decoded_column("A")
        assert sorted(table.decoded_column("A")) in ([1, 3], [3, 1])

    def test_born_columnar_results_expose_consistent_views(self):
        out = relation("AB", [(1, 2)]).join(relation("BC", [(2, 3)]))._table()
        assert set(out.columns()) == {"A", "B", "C"}
        assert out.rows == frozenset(out.row_list())
        assert len(out.row_list()) == len(out)


class TestInterner:
    def test_concurrent_interning_converges(self):
        values = [("vector-race", i % 50) for i in range(400)]
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            results[slot] = [intern_value(v) for v in values]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every thread saw the same id for the same value...
        assert all(r == results[0] for r in results)
        # ...and each id resolves back to the value that produced it.
        for v, vid in zip(values, results[0]):
            assert value_of(vid) == v

    def test_a_relation_reads_back_the_values_it_was_built_from(self):
        Relation.from_tuples("AB", [(True, "x")])
        (bc,) = Relation.from_tuples("BC", [("x", 1)]).rows
        (cd,) = Relation.from_tuples("CD", [(1.0, "y")]).rows
        assert type(bc["C"]) is int and bc["C"] == 1
        assert type(cd["C"]) is float and cd["C"] == 1.0
        # Typed values join none of each other, and a relation keeps all three.
        assert len(relation("AB", [(1, "x")]).join(relation("BC", [(1.0, "x")]))) == 0
        mixed = Relation.from_tuples("A", [(True,), (1,), (1.0,)])
        assert len(mixed) == len(mixed.rows) == 3
        oracle.assert_matches(mixed, oracle.operand("A", [(True,), (1,), (1.0,)]))

    def test_racing_first_sights_of_true_one_and_one_point_zero(self):
        # A fresh interpreter, so the three values are first sights.
        script = textwrap.dedent("""
            import sys
            import threading
            from repro.relational.columnar import intern_value, lookup_value, value_of
            values = [True, 1, 1.0]
            assert all(lookup_value(v) is None for v in values)
            results = [None] * 6
            barrier = threading.Barrier(6)

            def worker(slot):
                order = values[slot % 3:] + values[:slot % 3]
                barrier.wait()
                results[slot] = {type(v): intern_value(v) for v in order * 20}

            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert all(r == results[0] for r in results), results
            assert len(set(results[0].values())) == 3, results[0]
            for kind, vid in results[0].items():
                assert type(value_of(vid)) is kind
            print("ok")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.stdout.strip() == "ok", done.stderr
