"""Edge-path tests for Relation: operator protocols, naming, emptiness."""

import types

import pytest

from repro.relational.attributes import attrs
from repro.relational.relation import Relation, Row, relation


class TestOperatorProtocols:
    def test_mul_with_non_relation_is_not_implemented(self):
        r = relation("AB", [(1, 1)])
        with pytest.raises(TypeError):
            r * 3

    def test_or_and_sub_with_non_relation(self):
        r = relation("AB", [(1, 1)])
        for op in (lambda: r | 3, lambda: r & 3, lambda: r - 3):
            with pytest.raises(TypeError):
                op()

    def test_equality_with_non_relation(self):
        r = relation("AB", [(1, 1)])
        assert r != "AB"
        assert not (r == 42)

    def test_hash_consistent(self):
        a = relation("AB", [(1, 1), (2, 2)])
        b = relation("AB", [(2, 2), (1, 1)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestNaming:
    def test_with_name_preserves_content(self):
        r = relation("AB", [(1, 1)], name="old")
        renamed = r.with_name("new")
        assert renamed.name == "new"
        assert renamed == r  # name excluded from equality

    def test_with_name_none_clears(self):
        r = relation("AB", [(1, 1)], name="old")
        assert r.with_name(None).name is None


class TestEmptiness:
    def test_bool_of_empty(self):
        assert not Relation("AB")
        assert relation("AB", [(1, 1)])

    def test_empty_projection(self):
        assert Relation("AB").project("A").tau == 0

    def test_empty_select(self):
        assert Relation("AB").select(lambda r: True).tau == 0

    def test_empty_join_both_sides(self):
        empty = Relation("AB")
        other = relation("BC", [(1, 1)])
        assert empty.join(other).tau == 0
        assert other.join(empty).tau == 0

    def test_empty_union_identity(self):
        r = relation("AB", [(1, 1)])
        assert r.union(Relation("AB")) == r

    def test_pretty_of_empty(self):
        text = Relation("AB").pretty()
        assert "A | B" in text


class TestIteration:
    def test_contains_row(self):
        r = relation("AB", [(1, 2)])
        assert Row({"A": 1, "B": 2}) in r
        assert Row({"A": 9, "B": 9}) not in r

    def test_len_and_tau_agree(self):
        r = relation("AB", [(1, 1), (2, 2)])
        assert len(r) == r.tau == 2

    def test_iteration_yields_rows(self):
        r = relation("AB", [(1, 1)])
        (row,) = list(r)
        assert isinstance(row, Row)


class TestSchemeAccess:
    def test_scheme_is_attribute_set(self):
        r = relation("BA", [(1, 2)])
        assert r.scheme == attrs("AB")

    def test_rows_are_frozen(self):
        r = relation("AB", [(1, 1)])
        with pytest.raises(AttributeError):
            r.rows.add(Row({"A": 2, "B": 2}))  # frozenset has no add


class TestModuleNames:
    def test_submodule_import_binds_the_module(self):
        # If repro.relational re-exported the relation() function under the
        # submodule's name, this import would bind the function, and a patch
        # of rel.join_tables would patch nothing.
        import repro.relational.relation as rel

        assert isinstance(rel, types.ModuleType)
        assert rel.relation is relation
