"""E-OBS: cost of the observability layer on the optimizer hot path.

The contract (docs/observability.md) is *zero overhead when disabled*:
tracing is off by default and every instrumented hot path pays exactly
one attribute load (``if _TRACER.enabled`` / ``if _METRICS.enabled``).
The flight recorder (:mod:`repro.obs.recorder`) is **always on** and
must fit inside the same budget -- its ring is only touched on rare
coarse events (anomalies, exhaustions, run markers), never on the hot
path, and the disabled-side runs here execute with the recorder live,
exactly as every user's runs do.  The bench quantifies the contract on
the standard workload -- a 6-relation chain planned by the subset DP:

* **measured** -- median wall time of the run with observability
  disabled (the default every user pays) and enabled (the opt-in price);
* **estimated dormant overhead** -- the per-check cost of the guard,
  microbenchmarked in isolation, times the number of guards one run
  evaluates, as a fraction of the disabled run time.  The number is
  counted, not guessed: a separate measurement run swaps in a counting
  ``enabled`` on the tracer and on the registry, which every guard
  reads.  The estimate is the robust number: it cannot be confused by
  scheduler noise between two timed runs.

Results go to ``BENCH_obs.json`` at the repository root (machine-
readable) and ``benchmarks/results/E-OBS_overhead.txt`` (human-readable).
The dormant overhead must come in under 5%.
"""

import json
import pathlib
import random
import statistics
import time

import repro.obs as obs
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.trace import get_tracer
from repro.optimizer.dp import optimize_dp
from repro.report import Table
from repro.workloads.generators import WorkloadSpec, chain_scheme, generate_database

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RELATIONS = 6
ROUNDS = 7
THRESHOLD = 0.05
#: Timings of the guard microbenchmark; the median is the guard's cost.
GUARD_TRIALS = 7


def _fresh_db(seed: int):
    # A fresh database per timed run: the subset-join memo lives on the
    # Database, so reusing one would time cache lookups, not planning.
    rng = random.Random(seed)
    return generate_database(
        chain_scheme(RELATIONS), rng, WorkloadSpec(size=20, domain=6)
    )


def _time_runs(enabled: bool) -> list:
    times = []
    for seed in range(ROUNDS):
        db = _fresh_db(seed)
        if enabled:
            obs.enable()
        try:
            start = time.perf_counter()
            optimize_dp(db)
            times.append(time.perf_counter() - start)
        finally:
            obs.disable()
            obs.reset()
    return times


def _guard_check_ns() -> float:
    """The per-evaluation cost of the disabled hot-path guard: the median
    of :data:`GUARD_TRIALS` timed loops, loop overhead included."""
    tracer = get_tracer()
    assert not tracer.enabled
    n = 200_000
    trials = []
    for _ in range(GUARD_TRIALS):
        start = time.perf_counter()
        hits = 0
        for _ in range(n):
            if tracer.enabled:
                hits += 1
        trials.append((time.perf_counter() - start) / n * 1e9)
        assert hits == 0
    return statistics.median(trials)


def _recorder_event_ns() -> float:
    """The per-event cost of a flight-recorder ring append.  Events are
    rare (anomalies, markers), so this is informational -- the number
    shows the *ceiling* is microseconds even if an anomaly storm hit."""
    recorder = get_recorder()
    recorder.reset()
    n = 10_000
    start = time.perf_counter()
    for i in range(n):
        recorder.record("event", "bench.tick", i=i)
    elapsed = time.perf_counter() - start
    recorder.reset()
    return elapsed / n * 1e9


def _counting(instance, reads: list):
    """Swap ``instance`` onto a subclass whose ``enabled`` reads ``False``
    and counts each read into ``reads[0]``; returns its own class, to
    swap back.  The subclass adds no slots, so the swap is allowed."""
    own = type(instance)

    class Counting(own):
        __slots__ = ()

        @property
        def enabled(self):
            reads[0] += 1
            return False

    instance.__class__ = Counting
    return own


def _guard_evaluations_per_run() -> int:
    """The guards one disabled run evaluates, counted.

    Every guard on the hot path reads ``enabled`` on the process tracer
    or on the metrics registry: the ``if _TRACER.enabled`` /
    ``if _METRICS.enabled`` sites, the check inside ``Tracer.span``, and
    the one inside every instrument update.  For one run of the workload
    both answer through a counting stand-in, in a run of its own, so the
    count costs the timed runs nothing."""
    tracer, registry = get_tracer(), get_registry()
    assert not tracer.enabled and not registry.enabled
    reads = [0]
    db = _fresh_db(0)
    tracer_class = _counting(tracer, reads)
    registry_class = _counting(registry, reads)
    try:
        optimize_dp(db)
    finally:
        tracer.__class__ = tracer_class
        registry.__class__ = registry_class
    return reads[0]


def test_disabled_observability_overhead_under_5pct(record):
    # The dormant figure must describe what users actually run: tracing
    # and metrics off, flight recorder on.
    assert get_recorder().enabled
    disabled = _time_runs(enabled=False)
    enabled = _time_runs(enabled=True)
    disabled_s = statistics.median(disabled)
    enabled_s = statistics.median(enabled)

    guard_ns = _guard_check_ns()
    guard_evals = _guard_evaluations_per_run()
    recorder_ns = _recorder_event_ns()
    dormant_overhead = (guard_ns * 1e-9 * guard_evals) / disabled_s

    payload = {
        "workload": f"optimize_dp on a {RELATIONS}-relation chain "
        "(size=20, domain=6)",
        "rounds": ROUNDS,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_over_disabled": enabled_s / disabled_s,
        "guard_check_ns": guard_ns,
        "guard_evaluations_per_run": guard_evals,
        "recorder_enabled": True,
        "recorder_event_ns": recorder_ns,
        "dormant_overhead_fraction": dormant_overhead,
        "threshold": THRESHOLD,
    }
    (REPO_ROOT / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    table = Table(
        ["quantity", "value"],
        title=f"E-OBS: observability overhead, {RELATIONS}-relation chain DP",
    )
    table.add_row("disabled median (s)", f"{disabled_s:.4f}")
    table.add_row("enabled median (s)", f"{enabled_s:.4f}")
    table.add_row("enabled / disabled", f"{enabled_s / disabled_s:.3f}")
    table.add_row("guard check (ns)", f"{guard_ns:.1f}")
    table.add_row("guard evaluations / run (counted)", guard_evals)
    table.add_row("recorder ring append (ns)", f"{recorder_ns:.1f}")
    table.add_row("dormant overhead", f"{dormant_overhead * 100:.4f}%")
    record("E-OBS_overhead", table.render())

    assert dormant_overhead < THRESHOLD
