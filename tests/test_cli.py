"""Tests for the command-line interface."""

import json
import pathlib
import re
import shlex

import pytest

import repro.obs as obs
from repro import __version__
from repro.cli import build_parser, main
from repro.database import Database
from repro.optimizer.dp import optimize_dp
from repro.workloads.generators import WorkloadSpec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_examples_command(self):
        args = build_parser().parse_args(["examples"])
        assert args.command == "examples"

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.shape == "chain"
        assert args.relations == 5
        assert args.space == "all"

    def test_invalid_shape_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--shape", "blob"])

    def test_conditions_requires_example(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conditions"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_trace_flags_default_off(self):
        args = build_parser().parse_args(["optimize"])
        assert args.trace is False
        assert args.trace_json is None


class TestEngineFlag:
    @pytest.mark.parametrize("removed", ["legacy", "columnar"])
    def test_removed_engines_rejected(self, capsys, removed):
        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", removed, "examples"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for engine in ("vector", "wcoj", "yannakakis"):
            assert f"'{engine}'" in err

    def test_omitted_engine_leaves_the_database_unpinned(self, capsys):
        assert build_parser().parse_args(["optimize"]).engine is None
        assert main(["optimize", "--shape", "cycle", "--relations", "4"]) == 0
        assert "engine: unpinned (scheme cyclic" in capsys.readouterr().out

    def test_vector_pins_the_reference_engine(self, capsys):
        argv = ["--engine", "vector", "optimize", "--shape", "cycle", "--relations", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine: vector (scheme cyclic; pinned on the database)" in out
        assert "-> plan (vector engine)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples"],
            ["optimize", "--relations", "3"],
            ["explain", "--relations", "3", "--no-memory"],
            ["conditions", "--example", "4"],
            ["sample", "--relations", "3", "--samples", "5"],
        ],
    )
    def test_every_database_carries_the_engine(self, capsys, monkeypatch, argv):
        pinned = []
        with_engine = Database.with_engine

        def spy(db, engine):
            pinned.append(engine)
            return with_engine(db, engine)

        monkeypatch.setattr(Database, "with_engine", spy)
        assert main(["--engine", "yannakakis", *argv]) == 0
        capsys.readouterr()
        assert pinned and set(pinned) == {"yannakakis"}


class TestExamplesCommand:
    def test_replays_all_five(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for lesson in ("Theorem 1", "Theorem 2", "Theorem 3"):
            assert lesson in out
        assert "optimum tau=11" in out  # Examples 4 and 5


class TestCensusCommand:
    def test_prints_paper_counts(self, capsys):
        assert main(["census", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "15" in out and "12" in out

    def test_respects_max_n(self, capsys):
        main(["census", "--max-n", "5"])
        out = capsys.readouterr().out
        assert "105" in out
        assert "945" not in out


class TestOptimizeCommand:
    def test_explains_a_plan(self, capsys):
        code = main(
            [
                "optimize",
                "--shape",
                "chain",
                "--relations",
                "4",
                "--seed",
                "3",
                "--size",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "scan R1" in out
        assert "safe[all]" in out

    def test_space_restriction(self, capsys):
        main(
            [
                "optimize",
                "--shape",
                "chain",
                "--relations",
                "4",
                "--space",
                "linear",
                "--size",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert "space: linear" in out

    def test_jobs_with_the_exhaustive_space(self, capsys):
        code = main(["optimize", "--relations", "3", "--space", "exhaustive"])
        assert code == 0
        assert "optimizer: exhaustive" in capsys.readouterr().out


class TestTracedOptimize:
    _BASE = ["optimize", "--shape", "chain", "--relations", "4", "--size", "10"]

    def test_trace_prints_stats_and_span_tree(self, capsys):
        assert main(self._BASE + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "stats: estimator Q-error per step" in out
        assert "q-error geometric mean" in out
        # The trace section header now names the run's trace id.
        assert "\ntrace " in out
        assert "cli.optimize" in out
        assert "join.step" in out
        assert "Metrics" in out
        assert "optimizer.dp.states" in out

    def test_trace_leaves_observability_off_afterwards(self):
        main(self._BASE + ["--trace"])
        assert not obs.is_enabled()

    def test_trace_json_writes_valid_ledger_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(self._BASE + ["--trace-json", str(path)]) == 0
        assert f"ledger records to {path}" in capsys.readouterr().out
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert records
        # The ledger stream: a run header, the telemetry body, an outcome
        # footer -- every record self-describing via "type".
        assert records[0]["type"] == "run"
        assert records[-1]["type"] == "outcome"
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert set(by_type) <= {
            "run", "span", "metric", "resource", "event", "outcome"
        }
        spans, metrics = by_type["span"], by_type["metric"]
        names = {s["name"] for s in spans}
        # Root span, optimizer search, per-step tau, and estimator Q-error
        # are all on the wire.
        assert {"cli.optimize", "optimize.dp", "join.step", "estimate.step"} <= names
        assert any(m["name"] == "estimator.qerror" for m in metrics)
        # Every span belongs to the run the header names.
        assert {s["trace_id"] for s in spans} == {records[0]["trace_id"]}
        assert by_type["resource"]  # the sampler's final sample at minimum

    def test_chrome_trace_flag_writes_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.chrome.json"
        assert main(self._BASE + ["--chrome-trace", str(path)]) == 0
        assert f"Chrome-trace events to {path}" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert document["traceEvents"][0]["ph"] == "M"
        assert any(e["name"] == "cli.optimize" for e in document["traceEvents"])

    def test_untraced_run_prints_no_trace_section(self, capsys):
        main(self._BASE)
        out = capsys.readouterr().out
        assert "\ntrace " not in out
        assert "stats:" not in out


class TestExplainCommand:
    _BASE = ["explain", "--shape", "chain", "--relations", "4", "--size", "10"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.shape == "chain"
        assert args.relations == 5
        assert args.space == "all"
        assert args.trace_json is None
        assert args.chrome_trace is None
        assert args.no_memory is False

    def test_prints_explain_analyze_table(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE:" in out
        for column in ("est tau", "actual tau", "q-error", "time (ms)", "cache hit"):
            assert column in out
        assert "plan tau" in out
        assert "phase[execute]" in out

    @staticmethod
    def _records(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_trace_json_writes_the_run_ledger(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(self._BASE + ["--trace-json", str(path)]) == 0
        records = self._records(path)
        assert f"wrote {len(records)} ledger records to {path}" in (
            capsys.readouterr().out
        )
        header, profile = records[0], records[-5]
        assert (header["type"], header["name"]) == ("run", "cli.explain")
        assert profile["type"] == "profile"
        operators = records[-4:-1]
        assert [r["type"] for r in operators] == ["operator"] * 3
        assert profile["tau"] == sum(r["actual"] for r in operators)
        assert profile["workload"]["shape"] == "chain"
        # One trace id names the run, its spans, and its outcome.
        spans = [r for r in records if r["type"] == "span"]
        assert {"cli.explain", "db.join"} <= {s["name"] for s in spans}
        assert {s["trace_id"] for s in spans} == {header["trace_id"]}
        assert records[-1]["trace_id"] == header["trace_id"]

    def test_ledger_header_records_mains_own_arguments(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        argv = ["explain", "--shape", "chain", "--relations", "3"]
        argv += ["--trace-json", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        # Not the host process's sys.argv (pytest's, here).
        assert self._records(path)[0]["argv"] == argv

    def test_exhaustive_space_profiles_the_exhaustive_plan(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        argv = self._BASE + ["--space", "exhaustive", "--no-memory"]
        assert main(argv + ["--trace-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^optimizer +: exhaustive$", out, re.MULTILINE)
        (profile,) = [r for r in self._records(path) if r["type"] == "profile"]
        assert profile["optimizer"] == "exhaustive"
        spec = WorkloadSpec(size=10, domain=6, shape="chain", relations=4, seed=0)
        assert profile["tau"] == optimize_dp(spec.build()).cost

    @pytest.mark.parametrize("engine", [None, "vector", "wcoj"])
    @pytest.mark.parametrize("shape", ["chain", "cycle"])
    def test_obs_report_reprints_the_explain_output(
        self, capsys, tmp_path, shape, engine
    ):
        path = tmp_path / "run.jsonl"
        argv = ["explain", "--shape", shape, "--relations", "4"]
        if engine is not None:
            argv = ["--engine", engine] + argv
        assert main(argv + ["--trace-json", str(path)]) == 0
        printed = capsys.readouterr().out.split("\n\nwrote ")[0]
        assert printed.startswith("EXPLAIN ANALYZE: ")
        assert main(["obs", "report", str(path)]) == 0
        assert printed + "\n" in capsys.readouterr().out

    def test_chrome_trace_export(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(self._BASE + ["--chrome-trace", str(path)]) == 0
        assert "Chrome-trace events" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}

    def test_leaves_observability_dormant(self, capsys):
        assert main(self._BASE + ["--no-memory"]) == 0
        capsys.readouterr()
        assert not obs.is_enabled()
        assert len(obs.get_tracer()) == 0


class TestConditionsCommand:
    def test_example5_verdicts(self, capsys):
        assert main(["conditions", "--example", "5"]) == 0
        out = capsys.readouterr().out
        assert "C3  : no" in out
        assert "C1  : yes" in out

    def test_example4_verdicts(self, capsys):
        main(["conditions", "--example", "4"])
        out = capsys.readouterr().out
        assert "C1  : no" in out
        assert "C2  : yes" in out


class TestSampleCommand:
    def test_sample_summary(self, capsys):
        assert main(["sample", "--relations", "4", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "within_2x_of_min" in out
        assert "true optimum" in out

    def test_linear_flag(self, capsys):
        assert (
            main(["sample", "--relations", "4", "--samples", "30", "--linear"]) == 0
        )
        out = capsys.readouterr().out
        assert "median" in out


class TestObsCommand:
    _BASE = ["optimize", "--shape", "chain", "--relations", "4", "--size", "10"]

    @pytest.fixture(autouse=True)
    def fresh_recorder(self):
        # The auto-dump budget is per-process; start each test with a
        # clean ring so earlier suites cannot starve the bundle test.
        from repro.obs.recorder import get_recorder

        get_recorder().reset()
        yield
        get_recorder().reset()

    def _ledger(self, tmp_path, name="run.jsonl", extra=()):
        path = tmp_path / name
        assert main(self._BASE + list(extra) + ["--trace-json", str(path)]) == 0
        return path

    def test_report_summarizes_a_ledger(self, capsys, tmp_path):
        path = self._ledger(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli.optimize" in out
        assert "trace_id" in out
        assert "wall (ms)" in out
        assert "q-error max" in out

    def test_tail_prints_one_line_per_record(self, capsys, tmp_path):
        path = self._ledger(tmp_path)
        capsys.readouterr()
        assert main(["obs", "tail", str(path), "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("outcome")

    def test_diff_compares_two_runs(self, capsys, tmp_path):
        a = self._ledger(tmp_path, "a.jsonl")
        b = self._ledger(tmp_path, "b.jsonl", extra=["--seed", "7"])
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "run A" in out and "run B" in out
        assert "wall_ms" in out and "tau" in out

    def test_report_renders_a_flight_bundle(self, capsys, tmp_path, monkeypatch):
        # A deadline-starved exhaustive search degrades and dumps a
        # bundle; `repro obs report` renders it standalone.
        monkeypatch.setenv("REPRO_OBS_BUNDLE_DIR", str(tmp_path))
        assert (
            main(
                [
                    "optimize", "--shape", "chain", "--relations", "7",
                    "--space", "exhaustive", "--timeout-ms", "1", "--trace",
                ]
            )
            == 0
        )
        bundles = sorted(tmp_path.glob("flight-*.json"))
        assert bundles
        capsys.readouterr()
        assert main(["obs", "report", str(bundles[0])]) == 0
        out = capsys.readouterr().out
        assert "reason" in out
        assert "provenance.trigger" in out

    def test_obs_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


_REPO = pathlib.Path(__file__).resolve().parents[1]


def _documented_commands():
    """``(file, arguments)`` for every ``python -m repro …`` line in the
    fenced blocks of README.md, EXPERIMENTS.md and docs/*.md, with
    backslash continuations joined, ``{…}`` synopses skipped and
    trailing ``# …`` comments dropped."""
    marker = "python -m repro "
    found = []
    paths = [_REPO / "README.md", _REPO / "EXPERIMENTS.md"]
    for path in paths + sorted(_REPO.glob("docs/*.md")):
        fenced, block = False, []
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced:
                block.append(line)
        for line in "\n".join(block).replace("\\\n", " ").splitlines():
            if marker not in line:
                continue
            arguments = line.split(marker, 1)[1].split(" #", 1)[0].strip()
            if "{" not in arguments:
                found.append((path.name, arguments))
    return found


class TestDocumentedCommands:
    def test_every_documented_command_parses(self, capsys):
        commands = _documented_commands()
        assert len(commands) >= 10
        rejected = []
        for where, arguments in commands:
            try:
                build_parser().parse_args(shlex.split(arguments))
            except SystemExit as exit:
                # --version prints and exits 0 after a successful parse.
                if exit.code != 0:
                    rejected.append((where, arguments))
        capsys.readouterr()
        assert rejected == []
