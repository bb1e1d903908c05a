"""Command-line interface: ``python -m repro <command>``.

Seven commands, each a small window onto the reproduction:

* ``examples`` -- replay the paper's Examples 1-5 with verdicts;
* ``census [--max-n N]`` -- the strategy-space counts of Section 1;
* ``optimize --shape chain --relations 5 [--seed S] [--space all]`` --
  generate a synthetic database, plan it in a subspace, explain the plan,
  and print the paper's safety analysis; with ``--trace`` (and optionally
  ``--trace-json PATH``) the run is recorded through :mod:`repro.obs` and
  a ``stats`` section, the span tree, and the metric counters are printed
  (see docs/observability.md);
* ``explain`` -- the ``EXPLAIN ANALYZE`` profiler: plan the same
  synthetic workloads as ``optimize``, then execute the plan step by
  step and print per-step estimated vs actual tau, Q-error, wall time,
  kernel counters, and cache hit rates; ``--trace-json PATH`` writes the
  run ledger with the profile and one record per operator row, and
  ``--chrome-trace PATH`` the span tree (Perfetto-loadable);
* ``conditions --example N`` -- the C1/C1'/C2/C3 verdicts for a paper
  example;
* ``sample`` -- the cost distribution of uniformly sampled strategies;
* ``obs tail|report|diff`` -- inspect any run ledger: those written by
  ``optimize --trace-json`` and ``explain --trace-json`` and the
  incidents the flight recorder dumps on anomalies: ``tail`` prints the
  last records one per line, ``report`` summarizes a ledger down to
  wall time, tau, Q-error, cache hit rate, resource peaks, and
  anomalies (an incident's reason and provenance first, the anomaly
  table after), and reprints an ``explain`` ledger's ``EXPLAIN
  ANALYZE`` table, and ``diff`` compares two runs side by side (see
  docs/observability.md).

``optimize``, ``explain``, and ``conditions`` accept ``--timeout-ms``
and ``--budget``: the run then executes under a
:class:`~repro.runtime.Runtime` and *degrades* instead of overrunning --
exact searches fall back to a greedy plan (the output says so), and
condition checks may report ``timed-out`` (see docs/api.md).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

import repro.obs as obs
from repro import __version__
from repro.conditions.checks import check_condition
from repro.database import ENGINES
from repro.optimizer.dp import optimize_dp
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.spaces import SearchSpace
from repro.query import JoinQuery, Plan
from repro.report import Table, render_kv
from repro.runtime import Runtime
from repro.strategy.enumerate import count_all_strategies, count_linear_strategies
from repro.workloads.generators import SHAPES, WorkloadSpec
from repro.workloads.paper import (
    example1,
    example2_c2_only,
    example3,
    example4,
    example5,
)

__all__ = ["main", "build_parser"]

_EXAMPLES = {
    "1": example1,
    "2": example2_c2_only,
    "3": example3,
    "4": example4,
    "5": example5,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Tay's 'On the Optimality of "
        "Strategies for Multiple Joins'",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="pin every database of the command to an engine: the "
        "vectorized binary kernel alone (the reference), generic join on "
        "cyclic components, or the Yannakakis pipeline on acyclic ones "
        "and generic join on cyclic ones.  Omitted, the databases stay "
        "unpinned and each component's executor is decided on its plan "
        "(see docs/performance.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="replay the paper's Examples 1-5")

    census = sub.add_parser("census", help="strategy-space counts (Section 1)")
    census.add_argument("--max-n", type=int, default=8)

    def add_workload_flags(command: argparse.ArgumentParser) -> None:
        """The synthetic-workload flags shared by optimize and explain
        (lifted into a :class:`WorkloadSpec` by ``from_args``)."""
        command.add_argument("--shape", choices=sorted(SHAPES), default="chain")
        command.add_argument("--relations", type=int, default=5)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--size", type=int, default=20)
        command.add_argument("--domain", type=int, default=6)
        command.add_argument("--skew", type=float, default=0.0)
        command.add_argument(
            "--space",
            choices=[s.value for s in SearchSpace] + ["exhaustive"],
            default=SearchSpace.ALL.value,
            help="search subspace; 'exhaustive' searches all strategies "
            "by full enumeration instead of the subset DP",
        )
        add_runtime_flags(command)

    def add_runtime_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--timeout-ms",
            type=float,
            default=None,
            metavar="MS",
            help="deadline for the run; exact searches degrade to a "
            "greedy plan and condition checks report timed-out instead "
            "of overrunning (docs/api.md)",
        )
        command.add_argument(
            "--budget",
            type=int,
            default=None,
            metavar="UNITS",
            help="work-unit budget (candidates costed / DP states / "
            "condition instances); same degradation semantics as "
            "--timeout-ms",
        )

    def add_export_flags(command: argparse.ArgumentParser) -> None:
        """The run-export flags shared by optimize and explain."""
        command.add_argument(
            "--trace-json",
            metavar="PATH",
            default=None,
            help="write the run ledger (run header, spans, metrics, "
            "resource samples, events, explain's profile and operator "
            "rows, outcome) as JSONL to PATH, readable by 'repro obs'; "
            "on optimize it implies --trace",
        )
        command.add_argument(
            "--chrome-trace",
            metavar="PATH",
            default=None,
            help="write the recorded span tree as a Chrome Trace Event "
            "file, loadable in Perfetto / chrome://tracing; on optimize "
            "it implies --trace",
        )

    optimize = sub.add_parser("optimize", help="plan a synthetic database")
    add_workload_flags(optimize)
    optimize.add_argument(
        "--trace",
        action="store_true",
        help="record the run through repro.obs and print the stats "
        "section, span tree, and metrics",
    )
    add_export_flags(optimize)

    explain = sub.add_parser(
        "explain",
        help="EXPLAIN ANALYZE a synthetic database: per-step estimated "
        "vs actual tau, Q-error, timings, kernel counters, cache hit "
        "rates (docs/observability.md)",
    )
    add_workload_flags(explain)
    add_export_flags(explain)
    explain.add_argument(
        "--no-memory",
        action="store_true",
        help="skip tracemalloc phase peaks (faster on large workloads)",
    )

    conditions = sub.add_parser(
        "conditions", help="condition verdicts for a paper example"
    )
    conditions.add_argument("--example", choices=sorted(_EXAMPLES), required=True)
    add_runtime_flags(conditions)

    sample = sub.add_parser(
        "sample", help="cost distribution of uniformly sampled strategies"
    )
    sample.add_argument("--shape", choices=sorted(SHAPES), default="chain")
    sample.add_argument("--relations", type=int, default=6)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--samples", type=int, default=200)
    sample.add_argument("--linear", action="store_true")

    obs_cmd = sub.add_parser(
        "obs",
        help="inspect run ledgers, flight-recorder incidents included "
        "(docs/observability.md)",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    tail = obs_sub.add_parser(
        "tail", help="print the last records of a run ledger, one per line"
    )
    tail.add_argument("path", help="a ledger JSONL file")
    tail.add_argument("--limit", type=int, default=20, metavar="N")
    report = obs_sub.add_parser(
        "report",
        help="summarize a run ledger (with an incident's reason and "
        "anomalies, and an explain ledger's EXPLAIN ANALYZE table)",
    )
    report.add_argument("path", help="a ledger JSONL file")
    diff = obs_sub.add_parser(
        "diff", help="compare two run ledgers side by side"
    )
    diff.add_argument("a", help="baseline ledger JSONL file")
    diff.add_argument("b", help="candidate ledger JSONL file")

    return parser


def _cmd_examples(args: argparse.Namespace) -> int:
    table = Table(
        ["example", "what it shows", "verdict"],
        title="The paper's examples, replayed",
    )
    rows = [
        ("1", "C1 holds, yet the optimum uses a Cartesian product", example1),
        ("2", "C2 holds but C1 fails (independence of C1 and C2)", example2_c2_only),
        ("3", "a linear optimum uses a CP: Theorem 1 needs C1'", example3),
        ("4", "the optimum uses a CP: Theorem 2 needs C1", example4),
        ("5", "the unique optimum is bushy: Theorem 3 needs C3", example5),
    ]
    for number, lesson, make in rows:
        query = JoinQuery(make().with_engine(args.engine))
        best = query.optimize()
        verdict = (
            f"optimum tau={best.cost}, linear={best.is_linear}, "
            f"CP={best.uses_cartesian_products}"
        )
        table.add_row(number, lesson, verdict)
    table.print()
    return 0


def _cmd_census(max_n: int) -> int:
    table = Table(
        ["n", "all strategies (2n-3)!!", "linear n!/2"],
        title="Strategy-space census",
    )
    for n in range(2, max_n + 1):
        table.add_row(n, count_all_strategies(n), count_linear_strategies(n))
    table.print()
    return 0


def _render_stats(plan, profile) -> str:
    """The ``stats`` summary section of a traced ``optimize`` run."""
    from repro.optimizer.estimate import aggregate_qerror

    table = Table(
        ["step", "estimated", "actual", "q-error"],
        title="stats: estimator Q-error per step",
    )
    for entry in profile:
        table.add_row(entry.step, entry.estimated, entry.actual, entry.q_error)
    aggregates = aggregate_qerror(profile)
    lines = [
        table.render(),
        "",
        render_kv(
            [
                ("q-error max", aggregates["max"]),
                ("q-error mean", aggregates["mean"]),
                ("q-error geometric mean", aggregates["geometric_mean"]),
                ("plan tau", plan.cost),
            ]
        ),
    ]
    return "\n".join(lines)


def _runtime_from(args: argparse.Namespace) -> Optional[Runtime]:
    """The run's :class:`Runtime`, or ``None`` when neither
    ``--timeout-ms`` nor ``--budget`` was given."""
    return Runtime.with_limits(
        timeout_ms=getattr(args, "timeout_ms", None),
        budget=getattr(args, "budget", None),
    )


def _space_of(args: argparse.Namespace) -> SearchSpace:
    """The requested subspace (``--space exhaustive`` searches ALL)."""
    return (
        SearchSpace.ALL if args.space == "exhaustive" else SearchSpace(args.space)
    )


def _plan(args: argparse.Namespace, query: JoinQuery) -> Plan:
    """The requested plan: the subset DP, or -- under ``--space
    exhaustive`` -- full enumeration."""
    if args.space == "exhaustive":
        plan = Plan.from_result(
            optimize_exhaustive(
                query.database, SearchSpace.ALL, runtime=query.runtime
            )
        )
        plan.provenance.routing = query.routing
        return plan
    return query.optimize(_space_of(args))


def _safety_pairs(query: JoinQuery):
    """The safety report as render-ready pairs; three-valued verdicts
    print as ``timed-out`` instead of raising on truth-testing."""
    pairs = []
    for name, value in sorted(query.safety_report().items()):
        pairs.append((name, value if isinstance(value, bool) else "timed-out"))
    return pairs


def _ledger(name: str, args: argparse.Namespace, spec: WorkloadSpec):
    """The :class:`~repro.obs.ledger.RunLedger` that brackets a traced
    command: it mints the trace id, opens the root span, samples
    resources, and is the flight recorder's open run.  Its header
    records the arguments :func:`main` parsed (the process's own when
    ``main`` was given none)."""
    from repro.obs.ledger import RunLedger

    return RunLedger(
        name,
        workload=spec,
        argv=args.argv,
        attrs={"shape": args.shape, "relations": args.relations, "space": args.space},
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    tracing = (
        args.trace
        or args.trace_json is not None
        or args.chrome_trace is not None
    )
    spec = WorkloadSpec.from_args(args)
    db = spec.build().with_engine(args.engine)
    query = JoinQuery(db, runtime=_runtime_from(args))
    if not tracing:
        plan = _plan(args, query)
        print(plan.explain())
        print()
        print(render_kv(_safety_pairs(query)))
        return 0

    from repro.optimizer.estimate import qerror_profile

    obs.reset()
    obs.enable()
    try:
        with _ledger("cli.optimize", args, spec) as ledger:
            ledger.sampler.watch_database(db)
            plan = _plan(args, query)
            # The paper's per-step accounting, as join.step events ...
            obs.record_strategy_steps(plan.strategy)
            # ... and where classical estimation goes wrong on this plan.
            profile = qerror_profile(db, plan.strategy)
            safety = _safety_pairs(query)
        print(plan.explain())
        print()
        print(render_kv(safety))
        print()
        print(_render_stats(plan, profile))
        print()
        print(f"trace {ledger.trace_id}")
        print("=" * len(f"trace {ledger.trace_id}"))
        print(obs.render_span_tree())
        print()
        print(obs.render_metrics())
        if args.trace_json is not None:
            lines = ledger.write(args.trace_json)
            print()
            print(f"wrote {lines} ledger records to {args.trace_json}")
        if args.chrome_trace is not None:
            events = obs.write_chrome_trace(args.chrome_trace)
            print(f"wrote {events} Chrome-trace events to {args.chrome_trace}")
    finally:
        obs.disable()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.profile import RunReport

    spec = WorkloadSpec.from_args(args)
    db = spec.build().with_engine(args.engine)
    # A clean slate so the exports below carry exactly this run.
    obs.reset()
    obs.enable()
    try:
        # One trace id names the spans, the metrics, and the operator rows.
        with _ledger("cli.explain", args, spec) as ledger:
            report = RunReport.capture(
                db,
                _space_of(args),
                workload=spec,
                track_memory=not args.no_memory,
                planner=(
                    optimize_exhaustive if args.space == "exhaustive" else optimize_dp
                ),
                runtime=_runtime_from(args),
            )
        ledger.extend(report.records())
        print(report.render())
        if args.trace_json is not None:
            lines = ledger.write(args.trace_json)
            print(f"\nwrote {lines} ledger records to {args.trace_json}")
        if args.chrome_trace is not None:
            events = obs.write_chrome_trace(args.chrome_trace)
            print(f"wrote {events} Chrome-trace events to {args.chrome_trace}")
    finally:
        obs.disable()
        obs.reset()
    return 0


def _cmd_conditions(args: argparse.Namespace) -> int:
    db = _EXAMPLES[args.example]().with_engine(args.engine)
    runtime = _runtime_from(args)
    pairs = []
    for name in ("C1", "C1'", "C2", "C3", "C4"):
        report = check_condition(db, name, runtime=runtime)
        # Decided verdicts render yes/no; an exhausted sweep renders its
        # three-valued verdict instead of raising on truth-testing.
        pairs.append((name, report.holds if report.decided else report.verdict()))
    print(render_kv(pairs))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.strategy.sampling import (
        cost_distribution,
        sample_linear_strategy,
        sample_strategy,
    )

    spec = WorkloadSpec(
        size=15,
        domain=5,
        shape=args.shape,
        relations=args.relations,
        seed=args.seed,
    )
    db = spec.build().with_engine(args.engine)
    sampler = sample_linear_strategy if args.linear else sample_strategy
    summary = cost_distribution(
        db,
        random.Random(args.seed + 1),
        samples=args.samples,
        sampler=sampler,
    )
    summary["true optimum"] = optimize_dp(db).cost
    print(render_kv(sorted(summary.items())))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import ledger as obs_ledger

    if args.obs_command == "tail":
        print(obs_ledger.render_tail(obs_ledger.load(args.path), limit=args.limit))
        return 0
    if args.obs_command == "report":
        print(obs_ledger.render_report(obs_ledger.load(args.path)))
        return 0
    if args.obs_command == "diff":
        summary_a = obs_ledger.summarize(obs_ledger.load(args.a))
        summary_b = obs_ledger.summarize(obs_ledger.load(args.b))
        print(obs_ledger.render_diff(summary_a, summary_b))
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    if args.command == "examples":
        return _cmd_examples(args)
    if args.command == "census":
        return _cmd_census(args.max_n)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "conditions":
        return _cmd_conditions(args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
