"""The EXPLAIN ANALYZE profiler: capture invariants, the rows of the
operators that ran, rendering, and the run-ledger records."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.database import Database
from repro.obs.ledger import RunLedger, load, render_profile
from repro.obs.profile import KERNEL_COUNTERS, RunReport, StepProfile
from repro.optimizer.dp import optimize_dp
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    cycle_scheme,
    generate_database,
    generate_selective_star,
    star_scheme,
)
from tests.test_execute_oracle import databases

RELATIONS = 4
SPEC = WorkloadSpec(size=12, domain=5)


def _db(seed=0):
    return generate_database(chain_scheme(RELATIONS), random.Random(seed), SPEC)


@pytest.fixture(scope="module")
def report():
    captured = RunReport.capture(_db(), workload={"shape": "chain", "seed": 0})
    obs.disable()
    obs.reset()
    return captured


class TestCaptureInvariants:
    def test_one_profile_per_join_step(self, report):
        assert len(report.steps) == RELATIONS - 1
        assert all(isinstance(step, StepProfile) for step in report.steps)

    def test_tau_is_sum_of_actuals_and_matches_dp_cost(self, report):
        assert report.tau == sum(step.actual for step in report.steps)
        assert report.tau == optimize_dp(_db()).cost

    def test_q_error_floor(self, report):
        for step in report.steps:
            assert step.q_error >= 1.0
        assert report.qerror["max"] >= 1.0
        assert report.qerror["geometric_mean"] >= 1.0

    def test_kernel_counters_are_live(self, report):
        # A cold-cache execution really probes and produces tuples.
        assert sum(step.probes for step in report.steps) > 0
        assert sum(step.output_tuples for step in report.steps) > 0
        for step in report.steps:
            assert step.probes >= 0
            assert step.comparisons >= 0
            assert step.wall_ns >= 0

    def test_phases_recorded_in_order_with_memory_peaks(self, report):
        assert list(report.phases) == ["plan", "statistics", "execute"]
        for numbers in report.phases.values():
            assert numbers["wall_s"] >= 0.0
            assert numbers["peak_kb"] is not None
            assert numbers["peak_kb"] >= 0.0

    def test_cache_stats_snapshots(self, report):
        assert 0.0 <= report.planner_cache.hit_rate <= 1.0
        assert 0.0 <= report.executor_cache.hit_rate <= 1.0
        # The planner memoizes heavily; the DP must have hit its caches.
        assert report.planner_cache.lookups > 0

    def test_operator_clock_reads_the_snapshots_counts(self):
        # The clock's per-call read is the (hits, computed) a snapshot
        # reports, with both join-memo and tau-cache hits counted.
        db = _db()
        schemes = db.scheme.sorted_schemes()
        db.tau_of(schemes[:1])
        db.tau_of(schemes[:1])
        db.join_of(schemes[:2])
        db.join_of(schemes[:2])
        stats = db.cache_stats()
        assert stats.join_hits > 0 and stats.tau_hits > 0
        assert db.cache_counts() == (stats.hits, stats.computed)

    def test_observability_state_restored(self):
        assert not obs.is_enabled()
        RunReport.capture(_db(), track_memory=False)
        assert not obs.is_enabled()
        assert not obs.get_registry().enabled
        obs.reset()

    def test_capture_records_spans_for_chrome_export(self):
        obs.reset()
        RunReport.capture(_db(), track_memory=False)
        names = {span.name for span in obs.get_tracer().finished_spans()}
        assert names, "capture must leave its span tree behind for export"
        obs.reset()

    def test_track_memory_false_reports_none_peaks(self):
        report = RunReport.capture(_db(), track_memory=False)
        obs.reset()
        assert all(n["peak_kb"] is None for n in report.phases.values())

    def test_manual_strategy_skips_planning(self):
        planned = optimize_dp(_db())
        report = RunReport.capture(_db(), strategy=planned.strategy, track_memory=False)
        obs.reset()
        assert report.optimizer == "manual"
        assert report.strategy is planned.strategy
        assert report.tau == planned.cost


def _capture(db):
    report = RunReport.capture(db, track_memory=False)
    obs.reset()
    return report


class TestRowsAreTheOperatorsThatRan:
    def test_selective_star_profiles_as_one_yannakakis_row(self):
        report = _capture(generate_selective_star(3, 301))
        (row,) = report.steps
        assert (row.step, row.operator, row.actual) == (
            "yannakakis {Hub, S1, S2}", "yannakakis", 1
        )
        assert report.tau == 90002

    def test_routed_cycle_reads_its_result_from_the_memo(self):
        # Generic Join materialized R_D while the DP counted tau(R_D).
        db = generate_database(cycle_scheme(4), random.Random(0), SPEC)
        report = _capture(db)
        assert report.routing.effective == "wcoj"
        (row,) = report.steps
        assert row.operator == "memo"
        assert row.step == "wcoj {R1, R2, R3, R4}"
        assert (row.cache_hits, row.cache_lookups, row.output_tuples) == (1, 1, 0)
        assert report.tau == optimize_dp(db).cost

    def test_binary_star_rows_produce_the_plan_cost(self):
        db = generate_database(
            star_scheme(4), random.Random(17), WorkloadSpec(size=120, domain=4)
        )
        report = _capture(db)
        assert [r.engine for r in report.execution] == ["plan"]
        produced = sum(step.output_tuples for step in report.steps)
        assert produced == sum(step.actual for step in report.steps)
        assert produced == report.tau == optimize_dp(db).cost
        assert {step.operator for step in report.steps} == {"plan"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    databases(),
    st.sampled_from([None, "vector", "yannakakis"]),
    st.sampled_from([SearchSpace.ALL, SearchSpace.LINEAR, SearchSpace.NOCP]),
)
def test_rows_are_the_memo_entries_execute_adds(case, engine, space):
    relations, _ = case
    report = RunReport.capture(
        Database(relations, engine=engine), space, track_memory=False
    )
    obs.reset()
    plan = JoinQuery(Database(relations, engine=engine)).optimize(space)
    memo = plan.strategy.database._join_cache  # keyed by subset-index mask
    mask_of = plan.strategy.database.scheme.subset_index().mask_of
    before = len(memo)
    plan.execute()
    labels = {
        mask_of(node.scheme_set.schemes): node.describe()
        for node in plan.strategy.steps()
    }
    for record in plan.execution:
        if record.engine != "plan":
            labels[mask_of(record.subset)] = (
                f"{record.engine} {{{', '.join(record.relations)}}}"
            )
    computed = [step.step for step in report.steps if step.operator != "memo"]
    assert computed == [labels[key] for key in list(memo)[before:]]
    assert report.tau == plan.cost
    if all(record.engine == "plan" for record in plan.execution):
        assert sum(step.actual for step in report.steps) == plan.cost


class TestRendering:
    def test_render_contains_table_and_summary(self, report):
        text = report.render()
        assert "EXPLAIN ANALYZE:" in text
        for column in ("est tau", "actual tau", "q-error", "time (ms)", "cache hit"):
            assert column in text
        assert "plan tau" in text
        assert "q-error max" in text
        assert "phase[execute]" in text
        # Steps are numbered.
        assert "1. " in text

    def test_step_rows_match_step_count(self, report):
        text = report.render()
        for index in range(1, len(report.steps) + 1):
            assert f"{index}. " in text


class TestExport:
    def test_records_are_a_profile_then_one_operator_row_per_step(self, report):
        profile, *operators = json.loads(json.dumps(report.records()))
        assert profile["type"] == "profile"
        assert profile["tau"] == report.tau
        assert profile["space"] == "all"
        assert profile["workload"] == {"shape": "chain", "seed": 0}
        assert set(profile["phases"]) == {"plan", "statistics", "execute"}
        assert "hit_rate" in profile["planner_cache"]
        assert ["plan tau", report.tau] in profile["summary"]
        assert len(operators) == len(report.steps)
        for row, step in zip(operators, report.steps):
            assert row == dict(step.to_dict(), type="operator")
            assert {"step", "operator", "estimated", "actual", "q_error", "wall_ms",
                    "probes", "comparisons", "output_tuples",
                    "cache_hit_rate", "cartesian"} <= set(row)

    def test_written_ledger_renders_the_same_table(self, report, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger("test.explain", sample=False) as ledger:
            pass
        ledger.extend(report.records())
        ledger.write(str(path))
        kind, records = load(str(path))
        assert kind == "ledger"
        assert [r["type"] for r in records[-len(report.steps) - 2:]] == (
            ["profile"] + ["operator"] * len(report.steps) + ["outcome"]
        )
        assert render_profile(records) == report.render()

    def test_kernel_counter_names_are_the_documented_trio(self):
        assert KERNEL_COUNTERS == (
            "join.probes",
            "join.comparisons",
            "join.output_tuples",
        )


@pytest.mark.parametrize("engine", [None, "vector", "wcoj", "yannakakis"])
@pytest.mark.parametrize(
    "scheme", [chain_scheme(6), star_scheme(6)], ids=["chain6", "star6"]
)
def test_operator_rows_account_for_the_execute_phase(scheme, engine):
    # Where operators do real work, their own wall times leave only the
    # profiler's per-row bookkeeping outside the rows (docs/observability.md).
    db = generate_database(scheme, random.Random(1), WorkloadSpec(size=60, domain=8))
    report = _capture(db.with_engine(engine))
    execute_ms = report.phases["execute"]["wall_s"] * 1e3
    assert report.execute_wall_ms >= 0.9 * execute_ms


class TestLazyImports:
    def test_runreport_reachable_from_obs_namespace(self):
        assert obs.RunReport is RunReport
        assert obs.StepProfile is StepProfile

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            obs.does_not_exist
