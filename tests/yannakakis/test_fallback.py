"""Runtime integration: the pipeline charges the ambient runtime and
degrades to the binary pipeline, with full provenance, when it trips."""

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
from repro.workloads.generators import generate_selective_star
from repro.yannakakis import yannakakis_join


def _relations(size=201):
    # Big enough that the charger flushes during the reducer's first
    # semijoin (hub + satellite rows > the 512-unit charge chunk).
    return generate_selective_star(3, size).relations()


def _identical(left, right):
    lt, rt = left._table(), right._table()
    return lt.order == rt.order and lt.rows == rt.rows


class TestYannakakisExhaustion:
    def test_budget_trigger(self):
        tables = [rel._table() for rel in _relations()]
        with pytest.raises(KernelExhausted) as excinfo:
            yannakakis_join(tables, runtime=Runtime(budget=WorkBudget(1)))
        assert excinfo.value.trigger == "budget"

    def test_deadline_trigger(self):
        tables = [rel._table() for rel in _relations()]
        with pytest.raises(KernelExhausted) as excinfo:
            yannakakis_join(tables, runtime=Runtime(deadline=Deadline.after_ms(0)))
        assert excinfo.value.trigger == "deadline"

    def test_unbounded_runtime_is_free(self):
        tables = [rel._table() for rel in _relations(31)]
        result = yannakakis_join(tables, runtime=Runtime())
        assert len(result.rows) == 1  # the survivor row


class TestDatabaseFallback:
    def test_budget_exhaustion_falls_back_to_binary(self):
        relations = _relations()
        expected = Database(relations, engine="vector").evaluate()
        with obs.observed():
            runtime = Runtime(budget=WorkBudget(1))
            with using_runtime(runtime):
                result = Database(relations, engine="yannakakis").evaluate()
            assert _identical(expected, result)
            registry = get_registry()
            assert (
                registry.counter("yannakakis.fallback").value(trigger="budget")
                == 1
            )
            # The degradation is also counted on the runtime's own series.
            assert runtime.units_spent >= 1

    def test_deadline_exhaustion_falls_back_to_binary(self):
        relations = _relations()
        expected = Database(relations, engine="vector").evaluate()
        with obs.observed():
            with using_runtime(Runtime(deadline=Deadline.after_ms(0))):
                result = Database(relations, engine="yannakakis").evaluate()
            assert _identical(expected, result)
            assert (
                get_registry()
                .counter("yannakakis.fallback")
                .value(trigger="deadline")
                == 1
            )

    def test_fallback_lands_on_the_flight_recorder(self):
        relations = _relations()
        recorder = get_recorder()
        before = len(recorder.events())
        with using_runtime(Runtime(budget=WorkBudget(1))):
            Database(relations, engine="yannakakis").evaluate()
        names = [e["name"] for e in recorder.events()[before:]]
        assert "runtime.exhausted" in names
        assert "yannakakis.fallback" in names
        exhausted = next(
            e
            for e in recorder.events()[before:]
            if e["name"] == "runtime.exhausted"
        )
        assert exhausted["attributes"]["where"] == "yannakakis.pipeline"
        assert exhausted["attributes"]["trigger"] == "budget"

    def test_unbounded_ambient_runtime_does_not_fall_back(self):
        relations = _relations(31)
        with obs.observed():
            with using_runtime(Runtime()):
                result = Database(relations, engine="yannakakis").evaluate()
            assert get_registry().counter("yannakakis.fallback").value() is None
        assert len(result) == 1
