"""End-to-end instrumentation: the library records spans and metrics when
observability is on -- and, crucially, records *nothing* by default."""

import random

import repro.obs as obs
from repro import database, relation
from repro.conditions.checks import check_c1, check_c2
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import aggregate_qerror, qerror_profile
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.greedy import greedy_bushy, greedy_linear
from repro.optimizer.ikkbz import ikkbz
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery
from repro.strategy.enumerate import all_strategies, linear_strategies
from repro.workloads.generators import WorkloadSpec, chain_scheme, generate_database


def _db(relations=4, seed=0):
    rng = random.Random(seed)
    return generate_database(
        chain_scheme(relations), rng, WorkloadSpec(size=12, domain=5)
    )


def _tiny_db():
    return database(
        relation("AB", [("p", 0), ("q", 0)], name="R1"),
        relation("BC", [(0, "w"), (1, "x")], name="R2"),
        relation("CD", [("w", 7)], name="R3"),
    )


class TestZeroByDefault:
    """The regression tests for the zero-overhead-when-disabled contract."""

    def test_full_pipeline_records_no_spans_by_default(self):
        db = _db()
        query = JoinQuery(db)
        query.optimize(SearchSpace.ALL)
        greedy_bushy(db)
        greedy_linear(db)
        ikkbz(db)
        check_c1(db)
        list(all_strategies(_tiny_db()))
        qerror_profile(db, optimize_dp(db).strategy)
        assert len(obs.get_tracer()) == 0
        assert obs.get_tracer().finished_spans() == ()

    def test_full_pipeline_records_no_metrics_by_default(self):
        db = _db()
        optimize_dp(db)
        greedy_bushy(db)
        check_c2(db)
        list(linear_strategies(_tiny_db()))
        assert obs.get_registry().snapshot() == []


class TestOptimizerSpans:
    def test_dp_span_and_counters(self):
        db = _db()
        with obs.observed() as tracer:
            result = optimize_dp(db, SearchSpace.LINEAR)
        (span,) = tracer.spans_named("optimize.dp")
        assert span.attributes["space"] == "linear"
        assert span.attributes["relations"] == 4
        assert span.attributes["states"] > 0
        assert span.attributes["cost"] == result.cost
        registry = obs.get_registry()
        states = registry.counter("optimizer.dp.states")
        assert states.value(space="linear") == span.attributes["states"]
        assert registry.counter("optimizer.dp.splits").value(space="linear") > 0

    def test_exhaustive_span_and_counter(self):
        db = _db()
        with obs.observed() as tracer:
            result = optimize_exhaustive(db, SearchSpace.ALL)
        (span,) = tracer.spans_named("optimize.exhaustive")
        assert span.attributes["space"] == "all"
        assert span.attributes["relations"] == 4
        assert span.attributes["strategies"] == result.considered == 15
        assert span.attributes["cost"] == result.cost
        counter = obs.get_registry().counter("optimizer.exhaustive.strategies")
        assert counter.value(space="all") == result.considered

    def test_greedy_spans(self):
        db = _db()
        with obs.observed() as tracer:
            greedy_bushy(db)
            greedy_linear(db)
        spans = tracer.spans_named("optimize.greedy")
        assert sorted(s.attributes["algorithm"] for s in spans) == ["bushy", "linear"]
        for span in spans:
            assert span.attributes["joins_considered"] > 0
        counter = obs.get_registry().counter("optimizer.greedy.joins_considered")
        assert counter.value(algorithm="bushy") > 0
        assert counter.value(algorithm="linear") > 0

    def test_ikkbz_span(self):
        db = _db()
        with obs.observed() as tracer:
            ikkbz(db)
        (span,) = tracer.spans_named("optimize.ikkbz")
        assert span.attributes["roots"] == 4
        assert obs.get_registry().counter("optimizer.ikkbz.roots").value() == 4


class TestJoinTelemetry:
    def test_db_join_spans_carry_tau(self):
        db = _db()
        with obs.observed() as tracer:
            optimize_dp(db)
        joins = tracer.spans_named("db.join")
        assert joins
        for span in joins:
            assert span.attributes["tau"] >= 0
            assert span.attributes["relations"] >= 1

    def test_join_counters(self):
        db = _tiny_db()
        r1, r2 = db.relations()[:2]
        with obs.observed():
            r1.join(r2)
        registry = obs.get_registry()
        assert registry.counter("join.executed").value(kind="hash") == 1
        assert registry.counter("join.output_tuples").value(kind="hash") == 2

    def test_subset_join_cache_counters(self):
        db = _db()
        with obs.observed():
            optimize_dp(db)
            optimize_dp(db)  # second run hits the database's memo
        registry = obs.get_registry()
        assert registry.counter("db.subset_join.cache_hits").value() > 0


class TestCheckerAndEnumerationTelemetry:
    def test_condition_events_and_pair_counter(self):
        db = _tiny_db()
        with obs.observed() as tracer:
            report = check_c2(db)
        (event,) = tracer.spans_named("conditions.check")
        assert event.attributes["condition"] == "C2"
        assert event.attributes["instances"] == report.instances_checked
        counter = obs.get_registry().counter("conditions.pairs_tested")
        assert counter.value(condition="C2") == report.instances_checked

    def test_enumeration_span_counts_strategies(self):
        db = _tiny_db()
        with obs.observed() as tracer:
            produced = len(list(all_strategies(db)))
        (span,) = tracer.spans_named("strategy.enumerate")
        assert span.attributes["strategies"] == produced
        counter = obs.get_registry().counter("strategy.enumerated")
        assert counter.value(space="all") == produced

    def test_abandoned_enumeration_still_publishes(self):
        db = _tiny_db()
        with obs.observed() as tracer:
            gen = all_strategies(db)
            next(gen)
            gen.close()
        (span,) = tracer.spans_named("strategy.enumerate")
        assert span.attributes["strategies"] == 1


class TestEstimatorTelemetry:
    def test_qerror_events_and_histogram(self):
        db = _db()
        plan = optimize_dp(db).strategy
        with obs.observed() as tracer:
            profile = qerror_profile(db, plan)
        events = tracer.spans_named("estimate.step")
        assert len(events) == len(profile) == 3
        for event, entry in zip(events, profile):
            assert event.attributes["q_error"] == entry.q_error
            assert entry.q_error >= 1.0
        summary = obs.get_registry().histogram("estimator.qerror").value()
        assert summary.count == 3
        aggregates = aggregate_qerror(profile)
        assert aggregates["max"] >= aggregates["geometric_mean"] >= 1.0
