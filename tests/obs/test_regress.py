"""The perf-regression sentinel: classification, tolerance edges, CLI."""

import json

import pytest

from repro.obs.regress import (
    BASELINE_METRICS,
    DEFAULT_TOLERANCE,
    Comparison,
    MetricSpec,
    compare_files,
    compare_payloads,
    has_regressions,
    lookup,
    main,
    render_report,
)

SPEEDUP = MetricSpec("tau_only.speedup", higher_is_better=True)
OVERHEAD = MetricSpec("dormant_overhead_fraction", higher_is_better=False)


def _one(spec, baseline, fresh, tolerance=DEFAULT_TOLERANCE):
    (comparison,) = compare_payloads("f.json", baseline, fresh, [spec], tolerance)
    return comparison


class TestLookup:
    def test_resolves_nested_paths(self):
        assert lookup({"a": {"b": {"c": 3}}}, "a.b.c") == 3.0

    def test_missing_component_is_none(self):
        assert lookup({"a": {}}, "a.b") is None
        assert lookup({}, "a") is None

    def test_non_numeric_leaf_is_none(self):
        assert lookup({"a": "fast"}, "a") is None
        assert lookup({"a": True}, "a") is None
        assert lookup({"a": {"b": 1}}, "a") is None


class TestClassification:
    def test_identical_values_are_ok(self):
        c = _one(SPEEDUP, {"tau_only": {"speedup": 8.9}}, {"tau_only": {"speedup": 8.9}})
        assert c.status == "ok"
        assert c.ratio == pytest.approx(1.0)

    def test_drop_beyond_tolerance_is_regression(self):
        # 30% below baseline on a higher-is-better metric.
        c = _one(SPEEDUP, {"tau_only": {"speedup": 10.0}}, {"tau_only": {"speedup": 7.0}})
        assert c.status == "regression"

    def test_drop_within_tolerance_is_ok(self):
        c = _one(SPEEDUP, {"tau_only": {"speedup": 10.0}}, {"tau_only": {"speedup": 9.0}})
        assert c.status == "ok"

    def test_gain_beyond_tolerance_is_improved_not_failure(self):
        c = _one(SPEEDUP, {"tau_only": {"speedup": 10.0}}, {"tau_only": {"speedup": 15.0}})
        assert c.status == "improved"
        assert not has_regressions([c])

    def test_lower_is_better_direction_flips(self):
        worse = _one(
            OVERHEAD,
            {"dormant_overhead_fraction": 0.01},
            {"dormant_overhead_fraction": 0.02},
        )
        better = _one(
            OVERHEAD,
            {"dormant_overhead_fraction": 0.02},
            {"dormant_overhead_fraction": 0.01},
        )
        assert worse.status == "regression"
        assert better.status == "improved"

    def test_exact_tolerance_boundary_is_ok(self):
        # ratio == 1 - tolerance is *not* outside the band.
        c = _one(
            SPEEDUP,
            {"tau_only": {"speedup": 10.0}},
            {"tau_only": {"speedup": 8.0}},
            tolerance=0.20,
        )
        assert c.status == "ok"

    def test_custom_tolerance_narrows_the_band(self):
        c = _one(
            SPEEDUP,
            {"tau_only": {"speedup": 10.0}},
            {"tau_only": {"speedup": 9.0}},
            tolerance=0.05,
        )
        assert c.status == "regression"

    def test_missing_fresh_metric_is_a_regression(self):
        c = _one(SPEEDUP, {"tau_only": {"speedup": 10.0}}, {"tau_only": {}})
        assert c.status == "missing-fresh"
        assert has_regressions([c])

    def test_missing_fresh_payload_is_a_regression(self):
        c = _one(SPEEDUP, {"tau_only": {"speedup": 10.0}}, None)
        assert c.status == "missing-fresh"
        # Silence must not pass: a run that produced no payload at all
        # fails the sentinel.
        assert has_regressions([c])

    def test_missing_baseline_metric_is_tolerated(self):
        c = _one(SPEEDUP, {}, {"tau_only": {"speedup": 10.0}})
        assert c.status == "missing-baseline"
        assert not has_regressions([c])

    def test_zero_baseline_uses_absolute_band(self):
        ok = _one(
            OVERHEAD,
            {"dormant_overhead_fraction": 0.0},
            {"dormant_overhead_fraction": 0.05},
        )
        bad = _one(
            OVERHEAD,
            {"dormant_overhead_fraction": 0.0},
            {"dormant_overhead_fraction": 0.5},
        )
        assert ok.status == "ok"
        assert bad.status == "regression"


class TestComparison:
    def test_to_dict_roundtrips_through_json(self):
        c = Comparison("f.json", "a.b", 2.0, 1.0, "regression", 0.2)
        payload = json.loads(json.dumps(c.to_dict()))
        assert payload["ratio"] == pytest.approx(0.5)
        assert payload["status"] == "regression"

    def test_ratio_none_when_missing_or_zero(self):
        assert Comparison("f", "p", None, 1.0, "missing-baseline", 0.2).ratio is None
        assert Comparison("f", "p", 0.0, 1.0, "ok", 0.2).ratio is None
        assert Comparison("f", "p", 1.0, None, "missing-fresh", 0.2).ratio is None


def _write_payloads(
    directory,
    perf_speedup=15.0,
    overhead=0.01,
    wcoj_speedups=(5.0, 0.75, 3.0),
    yannakakis_speedups=(60.0, 1.1),
):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_perf.json").write_text(
        json.dumps({"tau_only": {"speedup": perf_speedup}})
    )
    (directory / "BENCH_obs.json").write_text(
        json.dumps({"dormant_overhead_fraction": overhead})
    )
    triangle, cycle4, clique5_count = wcoj_speedups
    (directory / "BENCH_wcoj.json").write_text(
        json.dumps(
            {
                "triangle": {"speedup": triangle},
                "cycle4": {"speedup": cycle4},
                "clique5_count": {"speedup": clique5_count},
            }
        )
    )
    selective_star, star4 = yannakakis_speedups
    (directory / "BENCH_yannakakis.json").write_text(
        json.dumps(
            {
                "selective_star": {"speedup": selective_star},
                "star4": {"speedup": star4},
            }
        )
    )


class TestCompareFilesAndMain:
    def test_identical_dirs_all_ok_and_exit_zero(self, tmp_path, capsys):
        _write_payloads(tmp_path / "base")
        _write_payloads(tmp_path / "fresh")
        comparisons = compare_files(tmp_path / "base", tmp_path / "fresh")
        metric_count = sum(len(specs) for specs in BASELINE_METRICS.values())
        assert len(comparisons) == metric_count
        assert all(c.status == "ok" for c in comparisons)
        code = main(
            ["--baseline-dir", str(tmp_path / "base"), "--fresh-dir", str(tmp_path / "fresh")]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_perturbed_beyond_tolerance_exits_nonzero(self, tmp_path, capsys):
        _write_payloads(tmp_path / "base")
        _write_payloads(tmp_path / "fresh", perf_speedup=10.0)
        code = main(
            ["--baseline-dir", str(tmp_path / "base"), "--fresh-dir", str(tmp_path / "fresh")]
        )
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_tolerance_flag_widens_the_band(self, tmp_path, capsys):
        _write_payloads(tmp_path / "base")
        _write_payloads(tmp_path / "fresh", perf_speedup=10.0)
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--tolerance", "0.5",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_missing_fresh_file_exits_nonzero(self, tmp_path, capsys):
        _write_payloads(tmp_path / "base")
        (tmp_path / "fresh").mkdir()
        code = main(
            ["--baseline-dir", str(tmp_path / "base"), "--fresh-dir", str(tmp_path / "fresh")]
        )
        assert code == 1
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        _write_payloads(tmp_path / "base")
        _write_payloads(tmp_path / "fresh", perf_speedup=10.0)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--json", str(report_path),
            ]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["regressed"] is True
        assert report["tolerance"] == DEFAULT_TOLERANCE
        statuses = {c["path"]: c["status"] for c in report["comparisons"]}
        assert statuses["tau_only.speedup"] == "regression"
        assert statuses["dormant_overhead_fraction"] == "ok"
        capsys.readouterr()

    def test_only_flag_restricts_guarded_files(self, tmp_path, capsys):
        # The perf speedup regresses, so --only on the (unchanged) wcoj
        # payload must ignore it -- and --only on the perf payload must not.
        _write_payloads(tmp_path / "base")
        _write_payloads(tmp_path / "fresh", perf_speedup=10.0)
        args = ["--baseline-dir", str(tmp_path / "base"), "--fresh-dir", str(tmp_path / "fresh")]
        assert main(args + ["--only", "BENCH_wcoj.json"]) == 0
        assert main(args + ["--only", "BENCH_perf.json"]) == 1
        comparisons = compare_files(
            tmp_path / "base", tmp_path / "fresh", files=["BENCH_wcoj.json"]
        )
        assert {c.file for c in comparisons} == {"BENCH_wcoj.json"}
        capsys.readouterr()

    def test_committed_baselines_pass_against_themselves(self, repo_root=None):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        baselines = root / "benchmarks" / "baselines"
        comparisons = compare_files(baselines, baselines)
        assert comparisons, "guarded baseline files must exist"
        assert not has_regressions(comparisons)


class TestRenderReport:
    def test_table_contains_verdicts_and_values(self):
        comparisons = [
            Comparison("BENCH_perf.json", "tau_only.speedup", 10.0, 7.0, "regression", 0.2),
            Comparison("BENCH_obs.json", "dormant_overhead_fraction", 0.01, None, "missing-fresh", 0.2),
        ]
        text = render_report(comparisons)
        assert "Perf-regression sentinel" in text
        assert "regression" in text
        assert "missing-fresh" in text
        assert "0.700" in text  # the fresh/base ratio
