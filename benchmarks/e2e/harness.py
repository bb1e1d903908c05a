"""Measurement core of the end-to-end benchmark.

One *operation* is what a user of the library does with a workload
member: build a fresh ``Database`` from the member's relations, then

* join workloads: ``JoinQuery(db)`` -> ``.optimize()`` -> ``.execute(plan)``;
* the safety workload: ``JoinQuery(db)`` -> ``.optimize()`` ->
  ``plan.explain()`` -> ``.safety_report()`` (the ``repro optimize`` path).

The load is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  A run cycles the
pool in whole passes, so every member contributes the same number of
latency samples; throughput is the median over passes.  Every time is
scaled to one reference host speed (see :class:`HostProbe`).

Every operation is checked against the outcome of the member's
unmeasured warm-up operation: the plan's tau and the result's size
(joins), or the plan's tau, the safety report and the explain text
(safety).  At the end of a run those expected values are checked against
a database pinned to the ``vector`` engine, and each join member's
result is compared with ``Database(relations, engine="vector").evaluate()``;
the paper's examples are also checked against the optimum tau the paper
states.

The traced variant splits an operation into the repository's layers by
timing calls to public functions from outside -- nothing under ``src/``
is instrumented for the benchmark -- and reads the counters and spans
``repro.obs`` already emits.

Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.database import Database
from repro.optimizer.dp import optimize_dp
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery, Plan

from workloads import GROUND_TRUTH, WORKLOADS, Member, build_pool

__all__ = [
    "LAYER_TARGETS",
    "OPERATIONS",
    "SPEC",
    "layer_unit",
    "run_workload",
]

#: The benchmark's definition: workloads, metrics with units and bounds,
#: and the run length.
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: Every per-layer quantity the traced run derives, with the end-to-end
#: metric and workload it should move.  Values are per operation unless
#: the unit is a ratio or share.
LAYER_TARGETS: Dict[str, str] = {
    "optimizer.route.ms": "latency_p50_ms on safety_report",
    "optimizer.route.ops_wcoj": "ops_per_s on cyclic_join",
    "optimizer.route.ops_yannakakis": "ops_per_s on cyclic_join",
    "optimizer.route.ops_vector": "ops_per_s on cyclic_join",
    "database.tau_of.ms": "ops_per_s on cyclic_join and wide_plan",
    "database.tau_of.calls": "ops_per_s on cyclic_join and wide_plan",
    "database.cache.hit_rate": "ops_per_s on cyclic_join and wide_plan",
    "database.cache.computed": "ops_per_s on cyclic_join and wide_plan",
    "optimizer.dp.ms": "ops_per_s on wide_plan",
    "optimizer.dp.states": "ops_per_s on wide_plan",
    "optimizer.dp.splits": "ops_per_s on wide_plan",
    "database.join_of.ms": "ops_per_s, latency_p95_ms, peak_rss_mb on acyclic_join",
    "relational.columnar.probes": "ops_per_s on acyclic_join",
    "relational.columnar.comparisons": "ops_per_s on acyclic_join",
    "relational.columnar.output_tuples": "peak_rss_mb on acyclic_join",
    "relational.columnar.useful_ratio": "ops_per_s on acyclic_join",
    "yannakakis.semijoins": "ops_per_s on acyclic_join",
    "yannakakis.subjoins": "ops_per_s on acyclic_join",
    "yannakakis.subjoin.ms": "ops_per_s on acyclic_join",
    "yannakakis.reduce.ms": "ops_per_s on acyclic_join",
    "yannakakis.join.ms": "ops_per_s on acyclic_join",
    "wcoj.ms": "ops_per_s on cyclic_join",
    "wcoj.intersections": "ops_per_s on cyclic_join",
    "wcoj.candidates": "ops_per_s on cyclic_join",
    "wcoj.useful_ratio": "ops_per_s on cyclic_join",
    "conditions.c1.ms": "latency_p50_ms on safety_report",
    "conditions.c2.ms": "latency_p50_ms on safety_report",
    "conditions.c3.ms": "latency_p50_ms on safety_report",
    "conditions.pairs_tested": "latency_p50_ms on safety_report",
    "query.other.ms": "residual: operation time outside the layers above",
    "obs.tracing_overhead": "none: timed runs have tracing off",
}

_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def layer_unit(name: str) -> str:
    """The unit of a per-layer quantity.  ``BENCHMARK.json`` lists every
    one except the layer times some workload never enters (execute on
    the safety workload, the conditions on the join workloads, each
    multiway kernel on the workloads that do not route to it): those
    would read 0 on every run there.  They are all in ms."""
    return _LAYER_UNITS.get(name, "ms")


#: repro.obs counters read per operation, by the layer metric they feed.
_COUNTERS = {
    "optimizer.dp.states": "optimizer.dp.states",
    "optimizer.dp.splits": "optimizer.dp.splits",
    "relational.columnar.probes": "join.probes",
    "relational.columnar.comparisons": "join.comparisons",
    "relational.columnar.output_tuples": "join.output_tuples",
    "yannakakis.semijoins": "yannakakis.semijoins",
    "yannakakis.subjoins": "yannakakis.subjoins",
    "wcoj.intersections": "wcoj.intersections",
    "wcoj.candidates": "wcoj.candidates",
    "wcoj.output_tuples": "wcoj.output_tuples",
    "conditions.pairs_tested": "conditions.pairs_tested",
}

#: repro.obs spans whose durations make up one per-operator time.  The
#: generic join emits one span per expansion level; they do not nest.
_SPANS = {
    "yannakakis.subjoin": "yannakakis.subjoin.ms",
    "yannakakis.reduce": "yannakakis.reduce.ms",
    "yannakakis.join": "yannakakis.join.ms",
    "wcoj.attr": "wcoj.ms",
}

#: Layers whose times the residual ``query.other.ms`` excludes.
_TIMED_LAYERS = (
    "optimizer.route",
    "database.tau_of",
    "optimizer.dp",
    "database.join_of",
    "conditions.c1",
    "conditions.c2",
    "conditions.c3",
)

#: The timed layers must add up to the traced operation time within this
#: share: the residual ``query.other.ms`` may be at most this much of it.
LAYER_SUM_TOLERANCE = 0.10

#: Set-up builds the pool at least ``BUILDS`` times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median build.  A build of
#: the smaller pools takes 5-40 ms, so a fixed count would take the
#: median of a few readings of one probe timing.
BUILDS = 7
SETUP_MIN_S = 1.0

# -- host speed ------------------------------------------------------------------


#: A typical probe time on the 2-CPU VM this benchmark was sized on
#: (2.9-5.3 ms there).  Scaled times read as wall times on a host where
#: the probe takes this long.
REFERENCE_PROBE_NS = 5_000_000


class HostProbe:
    """A fixed piece of interpreter work, timed between operations, that
    tracks the host's speed.

    The shared VM this benchmark was sized on changes speed for seconds
    to tens of minutes at a time, and every operation of the program
    runs up to 1.8 times slower when it is slow.  The probe is the kind
    of interpreter work the program does -- grouping small objects,
    sorting by key functions, formatting text, and a memoized split
    search over frozensets like the optimizer's -- written here, so it
    does not change with the program under test.  It slows by most of
    the same factor; of the probes tried, it tracked the operations of
    all four workloads most closely.  Every operation's
    time, and every set-up build's, is multiplied by
    ``REFERENCE_PROBE_NS`` over the median of the last three probe
    timings, which reports it at one reference speed.  The probe is
    timed again before an operation once its last timing is
    :attr:`EVERY_S` old: timing it once per pass mis-scaled the
    operations of a one-second pass during which the host changed speed.
    """

    EVERY_S = 0.1

    _WORDS = tuple(f"A{i % 97}_{i % 13}" for i in range(2000))
    _CHAIN = tuple(frozenset({f"A{i}", f"A{i + 1}"}) for i in range(9))

    def __init__(self):
        self.times_ns: List[int] = []
        self._timed_at = -float("inf")

    def _work(self) -> int:
        groups: Dict[str, _Group] = {}
        for position, word in enumerate(self._WORDS):
            group = groups.get(word)
            if group is None:
                group = groups[word] = _Group(word, position)
            group.members.append(position)
        ordered = sorted(groups.values(), key=lambda g: (len(g.members), g.key))
        firsts = {frozenset(g.members[:3]) for g in ordered}
        text = ",".join(f"{g.key}:{g.first}" for g in ordered)
        searched = sum(self._split_search() for _ in range(3))
        return len(firsts) + len(text) + searched

    def _split_search(self) -> int:
        memo: Dict[frozenset, int] = {}

        def cost(subset: frozenset) -> int:
            known = memo.get(subset)
            if known is not None:
                return known
            best = 1 if len(subset) == 1 else 10**9
            items = sorted(subset, key=sorted)
            for cut in range(1, len(items)):
                left, right = frozenset(items[:cut]), frozenset(items[cut:])
                if frozenset().union(*left) & frozenset().union(*right):
                    best = min(best, cost(left) + cost(right) + len(left) * len(right))
            memo[subset] = best
            return best

        chain = self._CHAIN
        return sum(
            cost(frozenset(chain[start:start + width]))
            for width in range(2, 8)
            for start in range(len(chain) - width + 1)
        )

    def scale(self) -> float:
        """The factor that takes times measured now to the reference
        speed, timing the probe first when the last timing is stale."""
        if time.perf_counter() - self._timed_at >= self.EVERY_S:
            # Collections would charge the probe for the program's garbage.
            gc.disable()
            try:
                start = time.perf_counter_ns()
                self._work()
                elapsed = time.perf_counter_ns() - start
            finally:
                gc.enable()
            self.times_ns.append(elapsed)
            self._timed_at = time.perf_counter()
        return REFERENCE_PROBE_NS / statistics.median(self.times_ns[-3:])


class _Group:
    __slots__ = ("key", "first", "members")

    def __init__(self, key: str, first: int):
        self.key = key
        self.first = first
        self.members: List[int] = []


# -- the measured operations ---------------------------------------------------


def join_operation(relations):
    """Plan and execute a natural-join query: ``(plan tau, result)``."""
    query = JoinQuery(Database(relations))
    plan = query.optimize()
    return plan.cost, query.execute(plan)


def safety_operation(relations):
    """The ``repro optimize`` path: ``(plan tau, (explain, report))``."""
    query = JoinQuery(Database(relations))
    plan = query.optimize()
    return plan.cost, (plan.explain(), query.safety_report())


OPERATIONS: Dict[str, Callable] = {
    "join": join_operation,
    "safety": safety_operation,
}


def _summary(kind: str, cost, detail) -> tuple:
    """What an operation is checked on."""
    if kind == "join":
        return (cost, len(detail))
    text, report = detail
    return (cost, tuple(sorted(report.items())), text)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    SHOWN = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self.SHOWN:
            self.reasons.append(reason)
            print(f"FAILED: {reason}", file=sys.stderr)

    def run(self, label: str, call: Callable):
        """``call()``, counting an exception as a failed operation."""
        try:
            return call()
        except Exception:  # a failing operation is a measurement, not a crash
            self.fail(f"{label} raised\n{traceback.format_exc()}")
            return None


# -- set-up ------------------------------------------------------------------------


def set_up(name: str, seed: int, tally: Tally, probe: HostProbe):
    """Build the pool repeatedly (the median scaled build is
    ``setup_s``), then run one unmeasured warm-up pass whose outcomes
    every later operation must reproduce.  Where the paper states a
    member's optimum tau, the warm-up must find it.  Returns the pool,
    the expected outcomes and the scaled build times."""
    kind = WORKLOADS[name].kind
    times = []
    first = time.perf_counter()
    while len(times) < BUILDS or time.perf_counter() - first < SETUP_MIN_S:
        scale = probe.scale()
        start = time.perf_counter()
        pool = build_pool(name, seed)
        times.append((time.perf_counter() - start) * scale)
    operation = OPERATIONS[kind]
    expected: List[Optional[tuple]] = []
    for member in pool:
        outcome = tally.run(member.label, lambda: operation(member.relations))
        want = None if outcome is None else _summary(kind, *outcome)
        expected.append(want)
        del outcome
        gc.collect()
        truth = GROUND_TRUTH.get(member.label)
        if want is None:
            continue
        if truth is not None and want[0] != truth:
            tally.fail(f"{member.label}: optimum tau {want[0]}, the paper's is {truth}")
        else:
            tally.ok()
    return pool, expected, times


def _check(tally: Tally, kind: str, member: Member, outcome, want) -> bool:
    got = _summary(kind, *outcome)
    if got == want:
        tally.ok()
        return True
    tally.fail(f"{member.label}: got {got[:2]}, expected {want and want[:2]}")
    return False


# -- the closed loop -----------------------------------------------------------------

#: ``step(index, member, scale)`` runs one operation on a pool member
#: and returns whether it completed and passed its check.
Step = Callable[[int, Member, float], bool]


def run_passes(pool: Sequence[Member], steps: Sequence[Step], budget_s: float,
               probe: HostProbe) -> List[List[float]]:
    """Whole passes over the pool, pass ``k`` running
    ``steps[k % len(steps)]`` on every member, for at most ``budget_s``.
    Returns, per step, the scaled operations per second of each of its
    passes; each operation and the collection after it are scaled by
    the factor the step's latency sample got.

    Passes run in cycles of one pass per step, so a traced run alternates
    untraced and traced passes and a change of host speed hits both
    alike.  The loop stops when one more cycle as long as the last would
    overrun the budget, and always runs at least one cycle.

    After every operation the client runs a full garbage collection,
    inside the pass's time but outside the operation's latency sample.
    A ``Database`` sits in a reference cycle, so only the cyclic
    collector frees it and the joins it memoized; left to the
    collector's thresholds, each operation would pay at random for
    garbage earlier ones left, and peak RSS and p95 would vary by a
    fifth from seed to seed.
    """
    rates: List[List[float]] = [[] for _ in steps]
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for step, step_rates in zip(steps, rates):
            completed, scaled_s = 0, 0.0
            for index, member in enumerate(pool):
                scale = probe.scale()
                op_start = time.perf_counter()
                completed += step(index, member, scale)
                gc.collect()
                scaled_s += (time.perf_counter() - op_start) * scale
            step_rates.append(completed / scaled_s)
        now = time.perf_counter()
        elapsed, last_cycle = now - start, now - cycle_start
        if elapsed + last_cycle > budget_s:
            return rates


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of sorted samples, linearly interpolated
    (the convention of ``repro.obs`` histograms); 0 without samples."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _untraced_step(name, pool, expected, tally: Tally):
    """The measured operation as a :data:`Step`, and each member's
    scaled latency samples, which it fills."""
    kind = WORKLOADS[name].kind
    operation = OPERATIONS[kind]
    samples: List[List[float]] = [[] for _ in pool]

    def step(index: int, member: Member, scale: float) -> bool:
        start = time.perf_counter_ns()
        outcome = tally.run(member.label, lambda: operation(member.relations))
        elapsed = time.perf_counter_ns() - start
        if outcome is None or not _check(tally, kind, member, outcome, expected[index]):
            return False
        samples[index].append(elapsed * scale)
        return True

    return step, samples


# -- the traced decomposition ---------------------------------------------------------


class LayerClock:
    """Times one operation's calls into each layer.

    Each layer call runs inside a benchmark span, so the spans
    ``repro.obs`` emits nest under the layer that caused them in a
    Chrome trace.  Statistics are timed per ``tau_of`` call without a
    span: the DP makes hundreds of them.
    """

    def __init__(self):
        self.ns: Counter = Counter()
        self.tau_calls = 0
        self._tracer = obs.get_tracer()

    @contextmanager
    def layer(self, name: str):
        start = time.perf_counter_ns()
        with self._tracer.span(f"e2e.{name}"):
            yield
        self.ns[name] += time.perf_counter_ns() - start

    def optimize(self, query: JoinQuery) -> Plan:
        """Exactly what ``JoinQuery.optimize()`` runs, with the
        statistics calls timed apart from the search."""
        db = query.database
        tau_of = db.tau_of

        def timed_tau(key):
            start = time.perf_counter_ns()
            try:
                return tau_of(key)
            finally:
                self.ns["database.tau_of"] += time.perf_counter_ns() - start
                self.tau_calls += 1

        with self.layer("optimizer.dp"):
            result = optimize_dp(db, SearchSpace.ALL, subset_cost=timed_tau)
        # The search's own time excludes the statistics it waited on.
        self.ns["optimizer.dp"] -= self.ns["database.tau_of"]
        plan = Plan.from_result(result)
        plan.provenance.routing = query.routing
        return plan


def traced_join(relations, clock: LayerClock):
    """``join_operation`` split into layers: ``(cost, result, query)``."""
    db = Database(relations)
    with clock.layer("optimizer.route"):
        query = JoinQuery(db)
    plan = clock.optimize(query)
    with clock.layer("database.join_of"):
        result = plan.execute()
    return plan.cost, result, query


def traced_safety(relations, clock: LayerClock):
    """``safety_operation`` split into layers."""
    db = Database(relations)
    with clock.layer("optimizer.route"):
        query = JoinQuery(db)
    plan = clock.optimize(query)
    text = plan.explain()
    for condition in ("C1", "C2", "C3"):
        with clock.layer(f"conditions.{condition.lower()}"):
            query.condition(condition)
    return plan.cost, (text, query.safety_report()), query


TRACED: Dict[str, Callable] = {"join": traced_join, "safety": traced_safety}


def _counter_totals(registry) -> Dict[str, float]:
    return {
        metric: sum(registry.counter(name).series().values())
        for metric, name in _COUNTERS.items()
    }


class LayerTotals:
    """Per-layer sums over the traced operations of a run, times scaled
    like every other time of the run."""

    def __init__(self):
        self.ops = 0
        self.wall_ns = 0.0
        self.ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.engines: Counter = Counter()
        self.cache_hits = 0
        self.cache_lookups = 0

    def add(self, wall_ns, scale, clock: LayerClock, query, spans, before, after):
        self.ops += 1
        self.wall_ns += wall_ns * scale
        for layer, ns in clock.ns.items():
            self.ns[layer] += ns * scale
        self.counts["database.tau_of.calls"] += clock.tau_calls
        for span in spans:
            metric = _SPANS.get(span.name)
            if metric is not None:
                self.ns[metric] += span.duration_ns * scale
        for metric, total in after.items():
            self.counts[metric] += total - before[metric]
        self.engines[query.routing.effective] += 1
        stats = query.database.cache_stats()
        self.cache_hits += stats.hits
        self.cache_lookups += stats.lookups
        self.counts["database.cache.computed"] += stats.computed

    def _residual_ns(self) -> float:
        return self.wall_ns - sum(self.ns[layer] for layer in _TIMED_LAYERS)

    def unattributed_share(self) -> float:
        """The share of the traced operation time outside every timed
        layer (the residual ``query.other.ms``)."""
        return _ratio(self._residual_ns(), self.wall_ns)

    def layers(self, overhead: float) -> Dict[str, float]:
        """Every quantity of :data:`LAYER_TARGETS`, per operation."""
        ops = max(self.ops, 1)
        out: Dict[str, float] = {}
        for layer in _TIMED_LAYERS:
            out[f"{layer}.ms"] = self.ns[layer] / ops / 1e6
        for metric in _SPANS.values():
            out[metric] = self.ns[metric] / ops / 1e6
        out["query.other.ms"] = self._residual_ns() / ops / 1e6
        for engine in ("wcoj", "yannakakis", "vector"):
            out[f"optimizer.route.ops_{engine}"] = self.engines[engine] / ops
        for metric, total in self.counts.items():
            if metric in LAYER_TARGETS:
                out[metric] = total / ops
        out["database.cache.hit_rate"] = _ratio(self.cache_hits, self.cache_lookups)
        out["relational.columnar.useful_ratio"] = _ratio(
            self.counts["relational.columnar.output_tuples"],
            self.counts["relational.columnar.comparisons"],
        )
        out["wcoj.useful_ratio"] = _ratio(
            self.counts["wcoj.output_tuples"], self.counts["wcoj.candidates"]
        )
        out["obs.tracing_overhead"] = overhead
        return {name: out[name] for name in LAYER_TARGETS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _traced_step(name, pool, expected, tally: Tally, keep_spans: list):
    """The layer-split operation as a :data:`Step`, with tracing on for
    its duration only, and the layer totals it fills.  ``keep_spans``
    receives the spans of the first traced pass, for export."""
    kind = WORKLOADS[name].kind
    operation = TRACED[kind]
    tracer = obs.get_tracer()
    registry = obs.get_registry()
    totals = LayerTotals()

    def step(index: int, member: Member, scale: float) -> bool:
        clock = LayerClock()
        before = _counter_totals(registry)
        with obs.observed():
            start = time.perf_counter_ns()
            with tracer.span("e2e.operation", member=member.label):
                outcome = tally.run(
                    member.label, lambda: operation(member.relations, clock)
                )
            elapsed = time.perf_counter_ns() - start
        after = _counter_totals(registry)
        spans = tracer.finished_spans()
        if totals.ops < len(pool):
            keep_spans.extend(spans)
        tracer.clear()
        if outcome is None:
            return False
        cost, detail, query = outcome
        if not _check(tally, kind, member, (cost, detail), expected[index]):
            return False
        totals.add(elapsed, scale, clock, query, spans, before, after)
        return True

    return step, totals


# -- end-of-run verification -------------------------------------------------------------


def verify(name: str, pool: Sequence[Member], expected, tally: Tally) -> None:
    """Check every member's expected values against a database pinned to
    the vector engine (which the router never re-pins), and each join
    member's result against that database's evaluation."""
    kind = WORKLOADS[name].kind
    for member, want in zip(pool, expected):
        tally.run(
            f"{member.label}: verification",
            lambda: _verify_member(kind, member, want, tally),
        )


def _verify_member(kind: str, member: Member, want, tally: Tally) -> None:
    db = Database(member.relations, engine="vector")
    cost = optimize_dp(db, SearchSpace.ALL).cost
    same_rows = True
    if kind == "join":
        reference = db.evaluate()
        got = (cost, len(reference))
        # Relation equality compares interned value ids, and interning
        # is injective, so this is equality of the decoded rows without
        # decoding 10^5-row results.
        same_rows = OPERATIONS[kind](member.relations)[1] == reference
    else:
        got = (cost, tuple(sorted(JoinQuery(db).safety_report().items())))
    if want is None or got != want[:2]:
        tally.fail(f"{member.label}: vector engine gives {got}, operations gave "
                   f"{None if want is None else want[:2]}")
    elif not same_rows:
        tally.fail(f"{member.label}: result rows differ from the vector engine's")
    else:
        tally.ok()


# -- one run ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_spans: Optional[list] = None) -> dict:
    """Set up, measure and verify one workload; returns its record.

    Untraced runs measure whole passes for ``seconds`` and report the
    ``end_to_end`` metrics of ``BENCHMARK.json``.  Traced runs alternate
    untraced and traced passes for ``seconds`` and report its
    ``per_layer`` metrics plus the full layer table.  ``seconds=0`` runs
    one pass of each.  ``trace_spans``, when given, receives the traced
    run's first-pass spans.
    """
    tally = Tally()
    probe = HostProbe()
    pool, expected, builds = set_up(name, seed, tally, probe)
    # Everything alive now (the pool, the interned values, the modules)
    # lives until the run ends: leave it out of every later collection,
    # so the client's collection after each operation costs in
    # proportion to that operation's garbage, not to the whole heap.
    gc.freeze()
    try:
        untraced, by_member = _untraced_step(name, pool, expected, tally)
        steps = [untraced]
        if trace:
            traced, totals = _traced_step(
                name, pool, expected, tally,
                [] if trace_spans is None else trace_spans,
            )
            steps.append(traced)
            obs.reset()
        rates = run_passes(pool, steps, seconds, probe)
        ordered = sorted(sample for member in by_member for sample in member)
        record = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "builds": len(builds),
            "passes": len(rates[0]),
            "members": [member.label for member in pool],
            "samples": len(ordered),
            "host_probe_ms": statistics.median(probe.times_ns) / 1e6,
            "member_p50_ms": {
                member.label: statistics.median(samples) / 1e6
                for member, samples in zip(pool, by_member)
                if samples
            },
        }
        if trace:
            obs.reset()
            overhead = _ratio(statistics.median(rates[1]), statistics.median(rates[0])) - 1
            values = record["layers"] = totals.layers(overhead)
            record["unattributed_share"] = totals.unattributed_share()
            wanted = SPEC["per_layer"]
        else:
            values = {
                "ops_per_s": statistics.median(rates[0]),
                "latency_p50_ms": percentile(ordered, 50) / 1e6,
                "latency_p95_ms": percentile(ordered, 95) / 1e6,
                "setup_s": statistics.median(builds),
                "peak_rss_mb": _peak_rss_mb(),
                # Every operation's plan tau was checked against these.
                "plan_tau": sum(want[0] for want in expected if want),
            }
            wanted = SPEC["end_to_end"]
        # After the peak RSS was read: the reference joins are not the
        # user's path and may hold larger intermediates.
        verify(name, pool, expected, tally)
        if trace and record["unattributed_share"] > LAYER_SUM_TOLERANCE:
            tally.fail(
                f"the layers miss {record['unattributed_share']:.1%} of the "
                "traced operation time"
            )
        record.update(
            attempted=tally.attempted,
            failed=tally.failed,
            error_rate=tally.failed / max(tally.attempted, 1),
            failures=tally.reasons,
            metrics={
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in wanted
            },
        )
        return record
    finally:
        gc.unfreeze()
