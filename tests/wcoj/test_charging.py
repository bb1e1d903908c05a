"""How Generic Join charges its runtime: the units per kernel call, and
how much frontier work passes between two charges."""

import random

import pytest

import repro.obs as obs
from repro.obs.metrics import get_registry
from repro.runtime import Runtime
from repro.runtime.core import CHARGE_CHUNK
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.wcoj import generic_count, generic_join
from repro.workloads.generators import (
    WorkloadSpec,
    clique_scheme,
    cycle_scheme,
    generate_database,
    generate_spiked_cycle,
)


def _frontier_rows():
    """``wcoj.intersections`` over every attribute: one per frontier row
    expanded so far."""
    return sum(get_registry().counter("wcoj.intersections").series().values())


class RecordingRuntime(Runtime):
    """An unbounded runtime that records every charge, and how many
    frontier rows had been expanded at the moment of the charge."""

    __slots__ = ("charges", "rows_seen")

    def __init__(self):
        super().__init__()
        self.charges = []
        self.rows_seen = []

    def charge(self, units=1):
        self.charges.append(units)
        self.rows_seen.append(_frontier_rows())
        return None


def _uniform(label, schemes, size, domain):
    # The e2e cyclic_join members draw their states from these seeds
    # (and rename the values by a bijection, which keeps every join's
    # size and so every unit).
    rng = random.Random(f"cyclic_join/{label}/data")
    return generate_database(schemes, rng, WorkloadSpec(size=size, domain=domain))


_MEMBERS = {
    "spiked_triangle200": lambda: generate_spiked_cycle(3, 200),
    "cycle3": lambda: _uniform("cycle3", cycle_scheme(3), 600, 60),
    "cycle4": lambda: _uniform("cycle4", cycle_scheme(4), 150, 20),
    "spiked_triangle1400": lambda: generate_spiked_cycle(3, 1400),
    "cycle5": lambda: _uniform("cycle5", cycle_scheme(5), 150, 15),
    "clique5": lambda: _uniform("clique5", clique_scheme(5), 35, 4),
    "clique4": lambda: _uniform("clique4", clique_scheme(4), 250, 6),
}

#: Units charged per kernel call, one per cyclic connected subset of >= 3
#: relations in ``connected_subsets()`` order: the whole database is
#: joined, every proper subset counted (what planning and executing the
#: member asks of Generic Join).  Measured on the 8.0.0 row-at-a-time
#: expansion: the column-at-a-time one spends exactly the same units.
_UNITS = {
    "spiked_triangle200": [1494],
    "cycle3": [3776],
    "cycle4": [3998],
    "spiked_triangle1400": [10494],
    "cycle5": [34734],
    "clique5": [
        177, 845, 2015, 840, 191, 858, 182, 189,
        996, 189, 197, 187, 834, 180, 188, 177,
    ],
    "clique4": [748, 20593, 748, 741, 740],
}


def _kernel_calls(db):
    """``(kernel, tables)`` for every cyclic connected subset of >= 3
    relations, as the database would hand them over."""
    whole = len(db.relations())
    for subset in db.connected_subsets():
        if len(subset) < 3 or is_alpha_acyclic(subset):
            continue
        kernel = generic_join if len(subset) == whole else generic_count
        yield kernel, [db.state_for(s)._table() for s in subset.sorted_schemes()]


@pytest.mark.parametrize("member", sorted(_MEMBERS))
def test_units_per_call_on_the_cyclic_join_members(member):
    db = _MEMBERS[member]()
    units = []
    for kernel, tables in _kernel_calls(db):
        runtime = RecordingRuntime()
        kernel(tables, runtime=runtime)
        units.append(sum(runtime.charges))
    assert units == _UNITS[member]


@pytest.mark.parametrize("member", ["cycle5", "clique4", "spiked_triangle1400"])
def test_at_most_a_chunk_of_frontier_rows_between_two_charges(member):
    for kernel, tables in _kernel_calls(_MEMBERS[member]()):
        obs.reset()
        runtime = RecordingRuntime()
        with obs.observed():
            kernel(tables, runtime=runtime)
        rows = _frontier_rows()
        # The last charge comes after every row the expansion ran ...
        assert runtime.rows_seen[-1] == rows
        # ... and no two charges are more than a chunk of rows apart.
        seen = [0, *runtime.rows_seen]
        assert max(b - a for a, b in zip(seen, seen[1:])) <= CHARGE_CHUNK
        if kernel is generic_join:
            assert rows > 2 * CHARGE_CHUNK  # the bound binds
