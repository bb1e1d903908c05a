"""Tests for database schemes: linked/disjoint/connected/components,
exactly on the paper's own examples from Section 2."""

import pytest

from repro.errors import SchemaError
from repro.relational.attributes import attrs
from repro.schemegraph.scheme import DatabaseScheme, are_linked, scheme_of


class TestPaperSection2Examples:
    def test_linked_example_positive(self):
        # {ABC, BE, DF} is linked to {CG, GH} (via C).
        assert are_linked(["ABC", "BE", "DF"], ["CG", "GH"])

    def test_linked_example_negative(self):
        # {AB, BE, DF} is not linked to {CG, GH}.
        assert not are_linked(["AB", "BE", "DF"], ["CG", "GH"])

    def test_disjoint_example_positive(self):
        left = scheme_of(["ABC", "BE", "DF"])
        right = scheme_of(["CG", "GH"])
        assert left.is_disjoint_from(right)

    def test_disjoint_example_negative(self):
        # {ABC, BE, CG, DF} and {CG, GH} share the scheme CG.
        left = scheme_of(["ABC", "BE", "CG", "DF"])
        right = scheme_of(["CG", "GH"])
        assert not left.is_disjoint_from(right)

    def test_unconnected_example(self):
        assert not scheme_of(["ABC", "BE", "DF"]).is_connected()

    def test_connected_example(self):
        assert scheme_of(["ABC", "BE", "AF", "DF"]).is_connected()

    def test_components_example(self):
        components = scheme_of(["ABC", "BE", "DF"]).components()
        assert scheme_of(["ABC", "BE"]) in components
        assert scheme_of(["DF"]) in components
        assert len(components) == 2

    def test_linked_parts_may_still_be_unconnected_union(self):
        # {ABC, BE, DF} union {CG, GH} remains unconnected (DF dangles).
        union = scheme_of(["ABC", "BE", "DF"]).union(scheme_of(["CG", "GH"]))
        assert not union.is_connected()
        assert union.component_count() == 2


class TestConstruction:
    def test_scheme_of_strings(self):
        db = scheme_of(["AB", "BC"])
        assert attrs("AB") in db
        assert len(db) == 2

    def test_scheme_of_passthrough(self):
        db = scheme_of(["AB"])
        assert scheme_of(db) is db

    def test_duplicate_schemes_collapse(self):
        assert len(scheme_of(["AB", "BA"])) == 1

    def test_empty_scheme_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseScheme([])

    def test_attributes_union(self):
        assert scheme_of(["AB", "BC"]).attributes == attrs("ABC")


class TestSetAlgebra:
    def test_union(self):
        combined = scheme_of(["AB"]).union(scheme_of(["BC"]))
        assert len(combined) == 2

    def test_difference(self):
        remaining = scheme_of(["AB", "BC"]).difference([attrs("AB")])
        assert remaining == scheme_of(["BC"])

    def test_difference_to_empty_rejected(self):
        with pytest.raises(SchemaError):
            scheme_of(["AB"]).difference([attrs("AB")])

    def test_restrict(self):
        assert scheme_of(["AB", "BC", "CD"]).restrict(["AB", "CD"]) == scheme_of(
            ["AB", "CD"]
        )

    def test_restrict_unknown_scheme_rejected(self):
        with pytest.raises(SchemaError):
            scheme_of(["AB"]).restrict(["XY"])

    def test_ordering_operators(self):
        small = scheme_of(["AB"])
        big = scheme_of(["AB", "BC"])
        assert small <= big
        assert small < big
        assert not big <= small


class TestComponents:
    def test_single_relation_is_one_component(self):
        assert scheme_of(["AB"]).component_count() == 1

    def test_component_of(self):
        db = scheme_of(["AB", "BC", "DE"])
        assert db.component_of("AB") == scheme_of(["AB", "BC"])
        assert db.component_of("DE") == scheme_of(["DE"])

    def test_component_of_unknown_scheme_rejected(self):
        with pytest.raises(SchemaError):
            scheme_of(["AB"]).component_of("XY")

    def test_components_partition_the_scheme(self):
        db = scheme_of(["AB", "BC", "DE", "EF", "GH"])
        components = db.components()
        covered = set()
        for component in components:
            assert not covered & component.schemes
            covered |= component.schemes
        assert covered == db.schemes

    def test_overlapping_attrs_without_shared_connectivity(self):
        # Two relations sharing an attribute are one component.
        assert scheme_of(["AB", "AC"]).component_count() == 1


class TestSubsetEnumeration:
    def test_subsets_count(self):
        db = scheme_of(["AB", "BC", "CD"])
        assert sum(1 for _ in db.subsets()) == 7

    def test_subsets_size_bounds(self):
        db = scheme_of(["AB", "BC", "CD"])
        assert sum(1 for _ in db.subsets(min_size=2, max_size=2)) == 3

    def test_connected_subsets_match_bruteforce_chain(self):
        db = scheme_of(["AB", "BC", "CD", "DE"])
        fast = {s.schemes for s in db.connected_subsets()}
        slow = {s.schemes for s in db.subsets() if s.is_connected()}
        assert fast == slow

    def test_connected_subsets_match_bruteforce_star(self):
        db = scheme_of(["ABC", "AX", "BY", "CZ"])
        fast = {s.schemes for s in db.connected_subsets()}
        slow = {s.schemes for s in db.subsets() if s.is_connected()}
        assert fast == slow

    def test_connected_subsets_match_bruteforce_disconnected(self):
        db = scheme_of(["AB", "BC", "DE", "EF"])
        fast = {s.schemes for s in db.connected_subsets()}
        slow = {s.schemes for s in db.subsets() if s.is_connected()}
        assert fast == slow

    def test_connected_subsets_no_duplicates(self):
        db = scheme_of(["AB", "BC", "CD", "DA"])  # cycle: many paths
        produced = [s.schemes for s in db.connected_subsets()]
        assert len(produced) == len(set(produced))

    def test_connected_subsets_respect_size_bounds(self):
        db = scheme_of(["AB", "BC", "CD"])
        sizes = [len(s) for s in db.connected_subsets(min_size=2)]
        assert sorted(sizes) == [2, 2, 3]


class TestPresentation:
    def test_str_sorts_schemes(self):
        assert str(scheme_of(["BC", "AB"])) == "{AB, BC}"

    def test_equality_and_hash(self):
        assert scheme_of(["AB", "BC"]) == scheme_of(["BC", "AB"])
        assert hash(scheme_of(["AB"])) == hash(scheme_of(["AB"]))
