"""Tests for the Database object: subset joins, caching, restriction."""

import pytest

from repro import Database, database, relation
from repro.errors import SchemaError
from repro.relational.attributes import attrs


class TestConstruction:
    def test_database_helper(self, chain3):
        assert len(chain3) == 3

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(SchemaError):
            database(relation("AB", [(1, 1)]), relation("AB", [(2, 2)]))

    def test_empty_database_rejected(self):
        with pytest.raises(SchemaError):
            Database([])

    def test_non_relation_rejected(self):
        with pytest.raises(SchemaError):
            Database(["AB"])

    def test_from_mapping_attaches_names(self):
        db = Database.from_mapping({"left": relation("AB", [(1, 1)])})
        assert db.relation_named("left").scheme == attrs("AB")


class TestAccessors:
    def test_state_for(self, chain3):
        assert chain3.state_for("AB").tau == 3

    def test_state_for_unknown_scheme(self, chain3):
        with pytest.raises(SchemaError):
            chain3.state_for("XY")

    def test_relation_named_unknown(self, chain3):
        with pytest.raises(SchemaError):
            chain3.relation_named("nope")

    def test_name_of_prefers_display_name(self, chain3):
        assert chain3.name_of("AB") == "R1"

    def test_name_of_falls_back_to_scheme(self):
        db = database(relation("AB", [(1, 1)]))
        assert db.name_of("AB") == "AB"

    def test_relations_order_is_deterministic(self, chain3):
        names = [r.name for r in chain3.relations()]
        assert names == ["R1", "R2", "R3"]


class TestJoins:
    def test_join_of_single(self, chain3):
        assert chain3.join_of(["AB"]) == chain3.state_for("AB")

    def test_join_of_pair(self, chain3):
        # AB: (1,1),(2,1),(3,2); BC: (1,5),(1,6),(2,7).
        # B=1 matches A in {1,2} x C in {5,6} = 4; B=2 matches (3,7) = 1.
        assert chain3.tau_of(["AB", "BC"]) == 5

    def test_evaluate_full(self, chain3):
        # ABC (5 tuples) joined with CD: C=5 (x2), C=7 (x1) kept.
        assert chain3.tau_of() == 3

    def test_join_cache_is_reused(self, chain3):
        first = chain3.join_of(["AB", "BC"])
        second = chain3.join_of(["BC", "AB"])
        assert first is second

    def test_join_of_unknown_scheme(self, chain3):
        with pytest.raises(SchemaError):
            chain3.join_of(["XY"])

    def test_join_of_empty_subset(self, chain3):
        with pytest.raises(SchemaError):
            chain3.join_of([])

    def test_is_nonnull(self, chain3):
        assert chain3.is_nonnull()

    def test_null_database_detected(self):
        db = database(
            relation("AB", [(1, 1)]),
            relation("BC", [(9, 9)]),
        )
        assert not db.is_nonnull()


class TestDerivedDatabases:
    def test_restrict(self, chain3):
        sub = chain3.restrict(["AB", "BC"])
        assert len(sub) == 2
        assert sub.tau_of() == 5

    def test_restrict_with_database_scheme(self, chain3):
        sub = chain3.restrict(chain3.scheme.restrict(["AB"]))
        assert len(sub) == 1

    def test_with_state_replaces(self, chain3):
        replacement = relation("AB", [(1, 1)], name="R1")
        updated = chain3.with_state(replacement)
        assert updated.state_for("AB").tau == 1
        assert chain3.state_for("AB").tau == 3  # original untouched

    def test_with_state_unknown_scheme(self, chain3):
        with pytest.raises(SchemaError):
            chain3.with_state(relation("XY", [(1, 1)]))


class TestRepr:
    def test_repr_lists_relations(self, chain3):
        assert "R1(3)" in repr(chain3)


class TestCacheStats:
    def test_fresh_database_has_zero_traffic(self, chain3):
        stats = chain3.cache_stats()
        assert stats.hits == stats.lookups == stats.computed == 0
        assert stats.hit_rate == 0.0

    def test_join_memo_hits_are_counted(self, chain3):
        chain3.join_of(["AB", "BC"])
        computed_once = chain3.cache_stats()
        assert computed_once.computed > 0
        assert computed_once.join_hits == 0
        chain3.join_of(["BC", "AB"])
        stats = chain3.cache_stats()
        assert stats.join_hits == 1
        assert stats.computed == computed_once.computed
        assert stats.join_entries > 0

    def test_tau_cache_hits_are_counted(self, chain3):
        chain3.tau_of(["AB"])
        chain3.tau_of(["AB"])
        stats = chain3.cache_stats()
        assert stats.tau_hits == 1
        assert stats.tau_entries > 0

    def test_hit_rate(self, chain3):
        chain3.tau_of(["AB"])
        chain3.tau_of(["AB"])
        chain3.tau_of(["AB"])
        stats = chain3.cache_stats()
        assert stats.hit_rate == pytest.approx(stats.hits / stats.lookups)
        assert 0.0 < stats.hit_rate < 1.0

    def test_delta_subtracts_counters_keeps_entries(self, chain3):
        chain3.tau_of(["AB"])
        before = chain3.cache_stats()
        chain3.tau_of(["AB"])
        chain3.join_of(["AB", "BC"])
        delta = chain3.cache_stats().delta(before)
        assert delta.tau_hits == 1
        assert delta.computed == chain3.cache_stats().computed - before.computed
        assert delta.join_entries == len(chain3._join_cache)

    def test_reset_zeroes_counters_not_caches(self, chain3):
        chain3.join_of(["AB", "BC"])
        chain3.join_of(["AB", "BC"])
        chain3.reset_cache_stats()
        stats = chain3.cache_stats()
        assert stats.hits == stats.computed == 0
        assert stats.join_entries > 0  # the memo itself survives
        chain3.join_of(["AB", "BC"])
        assert chain3.cache_stats().join_hits == 1  # still a cache hit

    def test_snapshots_are_independent(self, chain3):
        first = chain3.cache_stats()
        chain3.tau_of(["AB"])
        assert first.computed == 0  # snapshot, not a live view

    def test_clone_starts_fresh(self, chain3):
        chain3.join_of(["AB", "BC"])
        clone = Database(chain3.relations())
        assert clone.cache_stats().lookups == 0

    def test_to_dict_is_json_ready(self, chain3):
        chain3.tau_of(["AB"])
        payload = chain3.cache_stats().to_dict()
        assert set(payload) == {
            "join_hits",
            "tau_hits",
            "computed",
            "hit_rate",
            "join_entries",
            "tau_entries",
        }

    def test_counting_works_with_observability_off(self, chain3):
        import repro.obs as obs

        assert not obs.is_enabled()
        chain3.tau_of(["AB", "BC"])
        assert chain3.cache_stats().computed > 0


class TestJoinMemoConnectivity:
    """Regression tests for the subset-join recursion: connected subsets
    must never be computed through their own Cartesian shattering (the
    old max-scheme peeling did exactly that on long chains)."""

    def test_long_chain_full_join_stays_small(self):
        import random

        from repro.workloads.generators import generate_foreign_key_chain

        db = generate_foreign_key_chain(30, random.Random(30), size=10)
        db.tau_of()  # must complete instantly
        # Every memoized intermediate of the FK chain stays near the base
        # relation sizes; a disconnected shatter would reach 10^k tuples.
        assert all(len(rel) <= 100 for rel in db._join_cache.values())

    def test_interval_subsets_peel_from_endpoints(self):
        import random

        from repro.workloads.generators import chain_scheme, generate_database
        from repro.workloads.generators import WorkloadSpec

        rng = random.Random(1)
        db = generate_database(chain_scheme(8), rng, WorkloadSpec(size=6, domain=3))
        schemes = chain_scheme(8)
        middle = schemes[2:6]
        size = db.tau_of(middle)
        # Intermediates cached for the interval are sub-intervals, whose
        # sizes are bounded by the cross bound of two *adjacent* pieces,
        # never the full shatter product.
        assert size == len(db.join_of(middle))

    def test_unconnected_subset_joins_by_component(self, disconnected_db):
        # {AB, DE}: the result is the cross product of the two component
        # joins -- computed as such, once.
        assert disconnected_db.tau_of(["AB", "DE"]) == 2 * 2

    def test_spanning_tree_leaf_is_non_cut(self):
        from repro.schemegraph.scheme import DatabaseScheme

        scheme = DatabaseScheme(["AB", "BC", "CD", "DE"])
        index = scheme.subset_index()
        leaf = index.schemes[index.spanning_leaf(index.full).bit_length() - 1]
        assert scheme.difference([leaf]).is_connected()


class TestStructureFromTheIndex:
    """The join path reads each structural answer off the subset index
    once: a pinned multiway engine's count of a cyclic R_D reaches
    ``join_tree`` of the full scheme once, and the kernel is handed that
    verdict instead of asking again."""

    @pytest.mark.parametrize("engine", ["wcoj", "yannakakis"])
    def test_cyclic_full_count_asks_for_the_join_tree_once(self, engine, monkeypatch):
        import random

        from repro.schemegraph.index import SubsetIndex
        from repro.workloads.generators import (
            WorkloadSpec,
            cycle_scheme,
            generate_database,
        )

        relations = generate_database(
            cycle_scheme(4), random.Random(4), WorkloadSpec(size=10, domain=3)
        ).relations()
        db = Database(relations, engine=engine)
        full = db.scheme.subset_index().full
        asked = []
        join_tree = SubsetIndex.join_tree

        def spy(index, mask):
            asked.append(mask)
            return join_tree(index, mask)

        monkeypatch.setattr(SubsetIndex, "join_tree", spy)
        tau = db.tau_of(None)
        assert asked.count(full) == 1
        monkeypatch.undo()
        assert tau == len(Database(relations, engine="vector").evaluate())
        # tau_of computes the count, the count builds R_D into the join
        # memo, and the count is cached.
        stats = db.cache_stats()
        assert (stats.computed, stats.join_entries, stats.tau_entries) == (2, 1, 1)


class TestCyclicSchemeCounts:
    """The subset DP on a cycle computes each subset once on an
    unpinned database: every proper *connected* subset is counted (the
    DP multiplies an unconnected one's tau itself), and R_D is built
    once, by the executor the DP decides (one more computed entry, in
    the join memo).  The vector pin, the reference, also joins the
    subsets on R_D's peel path after counting them."""

    @pytest.mark.parametrize(
        "n,unpinned,vector", [(3, 5, 7), (4, 10, 13), (5, 20, 21)]
    )
    def test_subsets_computed_by_the_dp(self, n, unpinned, vector):
        import random

        from repro.optimizer.dp import optimize_dp
        from repro.workloads.generators import (
            WorkloadSpec,
            cycle_scheme,
            generate_database,
        )

        relations = generate_database(
            cycle_scheme(n), random.Random(n), WorkloadSpec(size=12, domain=4)
        ).relations()
        computed = {}
        for engine in (None, "vector"):
            db = Database(relations, engine=engine)
            optimize_dp(db)
            computed[engine] = db.cache_stats().computed
        assert computed == {None: unpinned, "vector": vector}


class TestResultLength:
    """``len`` of a join result reads the kernel table's row count: it
    builds no row set.  Vector and Yannakakis results are born as
    columns, Generic Join's as a row list, and none is born as a row
    set."""

    @staticmethod
    def _database(schemes, engine):
        import random

        rng = random.Random(11)
        relations, operands = [], []
        for scheme in schemes:
            names = sorted(scheme)
            rows = [{a: rng.randint(1, 3) for a in names} for _ in range(9)]
            relations.append(relation(scheme, [tuple(r[a] for a in names) for r in rows]))
            operands.append((names, rows))
        return Database(relations, engine=engine), operands

    @pytest.mark.parametrize(
        "engine,schemes",
        [
            ("vector", ["AB", "BC", "CD", "DE"]),
            ("vector", ["AB", "BC", "CD", "AD"]),
            ("wcoj", ["AB", "BC", "CD", "AD"]),
            ("yannakakis", ["AB", "BC", "CD", "DE"]),
        ],
    )
    def test_len_builds_no_row_set(self, engine, schemes):
        from tests import oracle

        db, operands = self._database(schemes, engine)
        result = db.evaluate()
        table = result._columnar
        born = table._rows
        assert born is None
        expected = len(oracle.join_all(operands)[1])
        assert expected > 0
        assert len(result) == expected
        assert table._rows is born
