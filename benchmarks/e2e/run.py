"""End-to-end query benchmark: ``JoinQuery`` from workload to result.

Runs the path users run -- route, plan, statistics, execute, and the
paper's safety report -- on four seeded workloads (``workloads.py``),
checks every result, and prints the end-to-end metrics by name and
unit.  A traced run prints the per-layer metrics instead.

All four workloads, each in its own fresh process, one at a time::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --traced --trace-out trace.json

One workload in this process; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/e2e/run.py --workload cyclic_join --seed 3 --seconds 28 --trace 0

The exit status is nonzero when any operation failed its check, and
when ``src/`` of this checkout cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"


def load_harness():
    """Import the harness against this checkout's ``src/`` and nothing
    else; exit nonzero when it is missing."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import repro from {SRC}: {exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"run.py: imported repro from {repro.__file__}, not from {SRC}"
        )
    import harness

    return harness


def environment(args) -> dict:
    """What the numbers were measured on and with."""
    return {
        "cpu_count": os.cpu_count(),
        "visible_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _write(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _print_record(harness, record: dict) -> None:
    print(
        f"{record['workload']}: seed {record['seed']}, {len(record['members'])} "
        f"members, {record['samples']} latency samples, "
        f"{record['attempted']} operations, {record['failed']} failed "
        f"(error_rate {record['error_rate']:.6g})"
    )
    print(
        f"  host probe {record['host_probe_ms']:.3f} ms; times are scaled to a "
        f"{harness.REFERENCE_PROBE_NS / 1e6:g} ms probe"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}")
    if "layers" in record:
        print(
            "  layer table, per operation (residual outside the timed "
            f"layers: {record['unattributed_share']:.1%} of the traced time):"
        )
        for name, value in record["layers"].items():
            unit, target = harness.layer_unit(name), harness.LAYER_TARGETS[name]
            print(f"    {name:36s} {value:>16.6f} {unit:6s} moves {target}")


def run_one(harness, args) -> int:
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(
            f"run.py: unknown workload {args.workload!r}; "
            f"expected one of {sorted(harness.WORKLOADS)}"
        )
    spans: list = []
    record = harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        trace_spans=spans if args.trace_out else None,
    )
    _print_record(harness, record)
    if args.trace_out:
        import repro.obs as obs

        events = obs.write_chrome_trace(args.trace_out, spans, process_name="e2e")
        print(f"wrote {events} trace events to {args.trace_out}")
    if args.out:
        _write(Path(args.out), {
            "environment": environment(args),
            "workloads": {args.workload: record},
        })
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["failed"] == 0 else 1


def run_all(harness, args) -> int:
    """Every workload in a fresh subprocess, one at a time."""
    suffix = "-traced" if args.trace else ""
    out = Path(args.out) if args.out else RESULTS / f"e2e-seed{args.seed}{suffix}.json"
    records = {}
    status = 0
    for name in harness.WORKLOADS:
        part = out.with_name(f"{out.stem}.{name}.part.json")
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(part),
        ]
        if args.trace_out:
            trace = Path(args.trace_out)
            command += ["--trace-out", str(trace.with_name(f"{trace.stem}-{name}{trace.suffix}"))]
        returncode = subprocess.run(command, check=False).returncode
        if part.exists():
            records[name] = json.loads(part.read_text())["workloads"][name]
            part.unlink()
        if returncode != 0:
            print(f"{name}: exited with status {returncode}", file=sys.stderr)
            status = 1
    _write(out, {"environment": environment(args), "workloads": records})
    print()
    print(f"{'workload':16s} {'metric':36s} {'value':>16s} unit")
    for name, record in records.items():
        for metric, value in record["metrics"].items():
            print(f"{name:16s} {metric:36s} {value['value']:>16.6f} {value['unit']}")
        print(f"{name:16s} {'error_rate':36s} {record['error_rate']:>16.6f} fraction")
        print(f"{name:16s} {'samples':36s} {record['samples']:>16d} count")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced run's first-pass spans as a Chrome trace")
    parser.add_argument("--out", metavar="PATH", help="write the result file here")
    args = parser.parse_args(argv)
    if args.trace_out:
        args.trace = 1
    harness = load_harness()
    if args.seconds is None:
        args.seconds = harness.SPEC["run_seconds"]
    if args.workload is None:
        return run_all(harness, args)
    return run_one(harness, args)


if __name__ == "__main__":
    sys.exit(main())
