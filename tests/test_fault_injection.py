"""Fault injection at every runtime charge of a query.

A test runtime's ``charge`` returns ``"budget"`` from its N-th call on.
For every N up to the number of calls an unbounded ``optimize()`` plus
``execute()`` makes, the query (bounded by that runtime) must return
rows byte-identical to the vector pin's ``evaluate()``, and a plan whose
cost is its true tau.  A trip in the
subset DP serves the greedy fallback; a trip in a kernel serves the
binary pipeline, and each kernel trip must name that kernel in its
``*.fallback`` counter, in its flight-recorder event, and in the
runtime's exhaustion event.  Binary steps charge nothing.

The inputs cover the places a kernel runs:

* a spiked triangle, whose R_C Generic Join builds inside the DP;
* the e2e ``cyclic_join`` pool's cycle4 draw (values not renamed),
  whose R_C the DP's plan builds;
* a selective star, which Yannakakis runs at execute;
* a chain beside a triangle, a cyclic component short of the whole
  scheme: the DP decides it, and after a trip in the DP Generic Join
  counts it.
"""

import importlib
import random
from collections import Counter

import pytest

import repro.obs as obs
from repro.database import Database
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.query import JoinQuery
from repro.relational.relation import relation
from repro.runtime import BUDGET, KernelExhausted, Runtime
from repro.strategy.cost import tau_cost
from repro.strategy.tree import parse_strategy
from repro.workloads.generators import (
    WorkloadSpec,
    cycle_scheme,
    generate_database,
    generate_selective_star,
    generate_spiked_cycle,
)

#: Each kernel entry ``Database.run_kernel`` calls, by the kernel it
#: belongs to, and the site its exhaustion is recorded under.
_KERNELS = {
    "generic_join": "wcoj",
    "generic_count": "wcoj",
    "yannakakis_join": "yannakakis",
}
_SITES = {"wcoj": "wcoj.generic_join", "yannakakis": "yannakakis.pipeline"}


class TripAt(Runtime):
    """A runtime whose ``charge`` returns ``"budget"`` from its
    ``n``-th call on (never, when ``n`` is ``None``), counting calls."""

    def __init__(self, n=None):
        super().__init__()
        self.n = n
        self.calls = 0

    def charge(self, units=1):
        self.calls += 1
        return BUDGET if self.n is not None and self.calls >= self.n else None


def _chain_beside_triangle():
    chain = [
        relation("DE", [(1, 1), (2, 2), (2, 3)], name="C1"),
        relation("EF", [(1, 4), (3, 5), (2, 4)], name="C2"),
        relation("FG", [(4, 1), (4, 2), (5, 9)], name="C3"),
    ]
    return list(generate_spiked_cycle(3, 41).relations()) + chain


#: Each input, and the kernel whose charges its runs trip: Generic Join
#: wherever a cyclic component is, also on cycle4 once a trip in the DP
#: leaves R_C to the greedy plan's count.
INPUTS = {
    "spiked_triangle": (lambda: generate_spiked_cycle(3, 41).relations(), "wcoj"),
    "cycle4": (
        lambda: generate_database(
            cycle_scheme(4),
            random.Random("cyclic_join/cycle4/data"),
            WorkloadSpec(size=150, domain=20),
        ).relations(),
        "wcoj",
    ),
    "selective_star": (
        lambda: generate_selective_star(4, 21).relations(), "yannakakis"
    ),
    "chain_beside_triangle": (_chain_beside_triangle, "wcoj"),
}


def _run(relations, runtime):
    """The plan and the rows of an optimized and executed query bounded
    by ``runtime``."""
    query = JoinQuery(Database(relations), runtime=runtime)
    plan = query.optimize()
    return plan, query.execute(plan)


def _spy_kernels(monkeypatch):
    """Count, per kernel, the runs that trip (``KernelExhausted``)."""
    # ``repro.database`` as an attribute is the database() helper, so
    # fetch the module itself to patch the kernels it calls.
    module = importlib.import_module("repro.database")
    trips = Counter()
    for name, kernel in _KERNELS.items():
        real = getattr(module, name)

        def spy(*args, real=real, kernel=kernel, **kwargs):
            try:
                return real(*args, **kwargs)
            except KernelExhausted:
                trips[kernel] += 1
                raise

        monkeypatch.setattr(module, name, spy)
    return trips


@pytest.mark.parametrize("label", sorted(INPUTS))
def test_every_charge_serves_the_reference_rows(label, monkeypatch):
    make, kernel = INPUTS[label]
    relations = make()
    reference = Database(relations, engine="vector").evaluate()._table()
    unbounded = TripAt()
    _run(relations, unbounded)
    assert unbounded.calls > 0
    recorder = get_recorder()
    tripped = Counter()
    for n in range(1, unbounded.calls + 1):
        obs.reset()
        recorder.reset()
        trips = _spy_kernels(monkeypatch)
        with obs.observed():
            plan, rows = _run(relations, TripAt(n))
            registry = get_registry()
            counted = {
                name: sum(registry.counter(f"{name}.fallback").series().values())
                for name in _SITES
            }
        monkeypatch.undo()
        table = rows._table()
        assert (table.order, table.rows) == (reference.order, reference.rows), n
        # The plan's cost is its true tau, whichever counts fell back.
        fresh = Database(relations, engine="vector")
        assert tau_cost(parse_strategy(fresh, plan.strategy.describe())) == plan.cost, n
        events = recorder.events()
        for name, site in _SITES.items():
            assert counted[name] == trips[name], (n, name)
            named = [e for e in events if e["name"] == f"{name}.fallback"]
            assert len(named) == trips[name], (n, name)
            where = [
                e for e in events
                if e["name"] == "runtime.exhausted" and e["attributes"]["where"] == site
            ]
            assert len(where) == trips[name], (n, name)
        tripped.update(trips)
    assert set(tripped) == {kernel}, tripped
