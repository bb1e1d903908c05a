"""Smoke test of the end-to-end benchmark at one pass.

Not part of the default suite (``testpaths`` is ``tests/``); select it::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

harness = run.load_harness()


def _smoke(workload, trace):
    # A zero budget runs one pass of each kind.
    return harness.run_workload(workload, 0, 0.0, trace=trace)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record = _smoke(workload, trace)
    assert record["error_rate"] == 0, record["failures"]
    wanted = harness.SPEC["per_layer"] if trace else harness.SPEC["end_to_end"]
    emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in wanted}
    assert record["passes"] == 1
    if trace:
        assert set(record["layers"]) == set(harness.LAYER_TARGETS)
    else:
        assert record["metrics"]["plan_tau"]["value"] > 0


def test_a_wrong_result_counts_as_a_failure(monkeypatch):
    honest = harness.OPERATIONS["join"]

    def off_by_one(relations):
        cost, result = honest(relations)
        return cost + 1, result

    monkeypatch.setitem(harness.OPERATIONS, "join", off_by_one)
    record = _smoke("wide_plan", False)
    assert record["failed"] > 0
    assert record["error_rate"] > 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, 0.10, "lower") == "ok"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.10, "lower") == "regressed"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.10, "higher") == "improved"
    noisy = [50.0, 100.0, 150.0, 200.0]
    assert compare.verdict(base, noisy, 0.10, "lower") == "unresolved"
    assert compare.exact_verdict([(0, 546), (1, 11)], [(0, 546), (1, 11)]) == "ok"
    assert compare.exact_verdict([(0, 546), (1, 11)], [(0, 546), (1, 12)]) == "regressed"
