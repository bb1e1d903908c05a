"""Runtime integration: the expansion charges the ambient runtime and
degrades to the binary pipeline, with full provenance, when it trips."""

import random

import pytest

import repro.obs as obs
from repro.database import Database
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.runtime import (
    Deadline,
    KernelExhausted,
    Runtime,
    WorkBudget,
    using_runtime,
)
from repro.wcoj import generic_count, generic_join
from repro.workloads.generators import (
    WorkloadSpec,
    clique_scheme,
    generate_database,
    generate_spiked_cycle,
)
from tests import oracle

#: The two ways a runtime trips, as (runtime factory, trigger, the
#: runtime's own exhaustion counter).
_TRIPS = {
    "budget": (lambda: Runtime(budget=WorkBudget(1)), "runtime.budget_exhausted"),
    "deadline": (
        lambda: Runtime(deadline=Deadline.after_ms(0)),
        "runtime.timeout",
    ),
}


class _PassesAfterFirstPoll(Deadline):
    """A deadline still open when the database checks the runtime before
    it starts a kernel, and passed from the next poll on: the kernel's
    first charge trips it."""

    __slots__ = ("polled",)

    def __init__(self):
        super().__init__(float("inf"))
        self.polled = False

    def expired(self):
        polled, self.polled = self.polled, True
        return polled


#: The runtimes of :data:`_TRIPS`, each tripping inside the kernel: an
#: already passed deadline would keep the database from starting it.
_KERNEL_TRIPS = {
    "budget": _TRIPS["budget"],
    "deadline": (
        lambda: Runtime(deadline=_PassesAfterFirstPoll()),
        "runtime.timeout",
    ),
}


def _relations(size=200):
    # Big enough that the charger flushes during the trie build
    # (3 * (size - 1) tuples > the 512-unit charge chunk).
    return generate_spiked_cycle(3, size).relations()


def _identical(left, right):
    lt, rt = left._table(), right._table()
    return lt.order == rt.order and lt.rows == rt.rows


class TestGenericJoinExhaustion:
    def test_budget_trigger(self):
        tables = [rel._table() for rel in _relations()]
        with pytest.raises(KernelExhausted) as excinfo:
            generic_join(tables, runtime=Runtime(budget=WorkBudget(1)))
        assert excinfo.value.trigger == "budget"

    def test_deadline_trigger(self):
        tables = [rel._table() for rel in _relations()]
        with pytest.raises(KernelExhausted) as excinfo:
            generic_join(tables, runtime=Runtime(deadline=Deadline.after_ms(0)))
        assert excinfo.value.trigger == "deadline"

    @pytest.mark.parametrize("trigger", sorted(_TRIPS))
    def test_count_trips_too(self, trigger):
        tables = [rel._table() for rel in _relations()]
        make_runtime, _ = _TRIPS[trigger]
        with pytest.raises(KernelExhausted) as excinfo:
            generic_count(tables, runtime=make_runtime())
        assert excinfo.value.trigger == trigger

    def test_unbounded_runtime_is_free(self):
        tables = [rel._table() for rel in _relations(21)]
        result = generic_join(tables, runtime=Runtime())
        assert len(result.rows) == 1 + 3 * 10


class TestDatabaseFallback:
    def test_budget_exhaustion_falls_back_to_binary(self):
        relations = _relations()
        expected = Database(relations, engine="vector").evaluate()
        with obs.observed():
            runtime = Runtime(budget=WorkBudget(1))
            with using_runtime(runtime):
                result = Database(relations, engine="wcoj").evaluate()
            assert _identical(expected, result)
            registry = get_registry()
            assert registry.counter("wcoj.fallback").value(trigger="budget") == 1
            # The degradation is also counted on the runtime's own series.
            assert runtime.units_spent >= 1

    def test_deadline_exhaustion_falls_back_to_binary(self):
        relations = _relations()
        expected = Database(relations, engine="vector").evaluate()
        with obs.observed():
            with using_runtime(Runtime(deadline=Deadline.after_ms(0))):
                result = Database(relations, engine="wcoj").evaluate()
            assert _identical(expected, result)
            assert (
                get_registry().counter("wcoj.fallback").value(trigger="deadline")
                == 1
            )

    def test_fallback_lands_on_the_flight_recorder(self):
        relations = _relations()
        recorder = get_recorder()
        before = len(recorder.events())
        with using_runtime(Runtime(budget=WorkBudget(1))):
            Database(relations, engine="wcoj").evaluate()
        names = [e["name"] for e in recorder.events()[before:]]
        assert "runtime.exhausted" in names
        assert "wcoj.fallback" in names
        exhausted = next(
            e
            for e in recorder.events()[before:]
            if e["name"] == "runtime.exhausted"
        )
        assert exhausted["attributes"]["where"] == "wcoj.generic_join"
        assert exhausted["attributes"]["trigger"] == "budget"

    def test_unbounded_ambient_runtime_does_not_fall_back(self):
        relations = _relations(21)
        with obs.observed():
            with using_runtime(Runtime()):
                result = Database(relations, engine="wcoj").evaluate()
            assert get_registry().counter("wcoj.fallback").value() is None
        assert len(result) == 1 + 3 * 10


class TestCountFallback:
    """A trip inside ``generic_count`` is recorded exactly once for the
    abandoned subset, and the count comes from the binary pipeline."""

    @staticmethod
    def _clique4_triangle():
        """A uniform clique4 and one of its four triangles (a proper
        cyclic subset, so ``tau_of`` counts it with Generic Join)."""
        db = generate_database(
            clique_scheme(4), random.Random(3), WorkloadSpec(size=40, domain=4)
        )
        triangle = db.scheme.sorted_schemes()[:3]
        operands = [(s, db.state_for(s).rows) for s in triangle]
        return db.relations(), triangle, len(oracle.join_all(operands)[1])

    @pytest.mark.parametrize("trigger", sorted(_KERNEL_TRIPS))
    def test_trip_is_recorded_once_per_channel(self, trigger):
        make_runtime, exhausted_counter = _KERNEL_TRIPS[trigger]
        relations, triangle, expected = self._clique4_triangle()
        recorder = get_recorder()
        before = len(recorder.events())
        with obs.observed():
            db = Database(relations, engine="wcoj")
            with using_runtime(make_runtime()):
                tau = db.tau_of(triangle)
            registry = get_registry()
            assert tau == expected
            # The kernel's own counter, and Generic Join ran once.
            assert registry.counter("wcoj.fallback").series() == {
                (("trigger", trigger),): 1
            }
            assert registry.counter("wcoj.joins").series() == {
                (("mode", "count"),): 1
            }
            # The runtime's exhaustion and fallback series.
            assert registry.counter(exhausted_counter).series() == {
                (("where", "wcoj.generic_join"),): 1
            }
            assert registry.counter("runtime.fallback").series() == {
                (("fallback", "binary join pipeline"), ("trigger", trigger)): 1
            }
        names = [e["name"] for e in recorder.events()[before:]]
        assert names.count("wcoj.fallback") == 1
        assert names.count("runtime.exhausted") == 1
        # The binary pipeline's count is cached like any other.
        assert db.tau_of(triangle) == expected
        assert db.cache_stats().tau_hits == 1
