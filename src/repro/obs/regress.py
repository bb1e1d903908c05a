"""The perf-regression sentinel: diff fresh benchmark runs against
committed baselines.

``benchmarks/baselines/`` holds the accepted ``BENCH_*.json`` payloads,
and :func:`compare_files` diffs freshly regenerated copies against them
on a fixed set of *machine-relative* metrics (speedup ratios and overhead
fractions, not absolute seconds -- so the comparison is meaningful
across hosts) with a configurable noise tolerance (default +/-20%).

Verdicts per metric:

* ``ok`` -- within tolerance of the baseline;
* ``improved`` -- better than baseline by more than the tolerance
  (worth re-baselining, but never a failure);
* ``regression`` -- worse than baseline by more than the tolerance;
* ``missing-fresh`` -- the fresh run lacks the metric or file (treated
  as a regression: silence must not pass);
* ``missing-baseline`` -- the baseline predates the metric (reported,
  not failed, so adding benchmarks does not break old baselines).

Run it as a module (the CI ``perf-regression`` job does)::

    PYTHONPATH=src python -m repro.obs.regress [--tolerance 0.2] \
        [--baseline-dir benchmarks/baselines] [--fresh-dir .] [--json OUT]

Exit status 0 when no metric regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.report import Table

__all__ = [
    "MetricSpec",
    "Comparison",
    "BASELINE_METRICS",
    "DEFAULT_TOLERANCE",
    "lookup",
    "compare_payloads",
    "compare_files",
    "render_report",
    "has_regressions",
    "main",
]

#: Accepted noise band around a baseline value (fractional).
DEFAULT_TOLERANCE = 0.20


class MetricSpec:
    """One guarded metric: a dotted path into a benchmark payload and the
    direction that counts as better."""

    __slots__ = ("path", "higher_is_better")

    def __init__(self, path: str, higher_is_better: bool):
        self.path = path
        self.higher_is_better = higher_is_better

    def __repr__(self) -> str:
        arrow = "higher" if self.higher_is_better else "lower"
        return f"<MetricSpec {self.path} ({arrow} is better)>"


#: The guarded metrics per benchmark file.  Speedups are ratios of two
#: paths' times on the same host (materialize-then-count over tau-only
#: counting, best binary plan over a multiway kernel); the
#: dormant-overhead fraction is a ratio of guard cost to run time -- all
#: host-relative, so committed baselines transfer across machines.
BASELINE_METRICS: Dict[str, Tuple[MetricSpec, ...]] = {
    "BENCH_perf.json": (
        MetricSpec("tau_only.speedup", higher_is_better=True),
    ),
    "BENCH_obs.json": (
        MetricSpec("dormant_overhead_fraction", higher_is_better=False),
    ),
    "BENCH_wcoj.json": (
        MetricSpec("triangle.speedup", higher_is_better=True),
        MetricSpec("cycle4.speedup", higher_is_better=True),
        MetricSpec("clique5_count.speedup", higher_is_better=True),
    ),
    "BENCH_yannakakis.json": (
        MetricSpec("selective_star.speedup", higher_is_better=True),
        MetricSpec("star4.speedup", higher_is_better=True),
    ),
}


class Comparison:
    """The verdict for one metric of one benchmark file."""

    __slots__ = ("file", "path", "baseline", "fresh", "status", "tolerance")

    def __init__(
        self,
        file: str,
        path: str,
        baseline: Optional[float],
        fresh: Optional[float],
        status: str,
        tolerance: float,
    ):
        self.file = file
        self.path = path
        self.baseline = baseline
        self.fresh = fresh
        self.status = status
        self.tolerance = tolerance

    @property
    def ratio(self) -> Optional[float]:
        """``fresh / baseline`` (``None`` when either side is missing or
        the baseline is zero)."""
        if self.baseline in (None, 0) or self.fresh is None:
            return None
        return self.fresh / self.baseline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "path": self.path,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "ratio": self.ratio,
            "status": self.status,
            "tolerance": self.tolerance,
        }

    def __repr__(self) -> str:
        return f"<Comparison {self.file}:{self.path} {self.status}>"


def lookup(payload: Mapping[str, Any], dotted: str) -> Optional[float]:
    """Resolve a dotted path (``"tau_only.speedup"``) in a nested dict;
    ``None`` when any component is missing or the leaf is not a number."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _classify(
    spec: MetricSpec,
    baseline: Optional[float],
    fresh: Optional[float],
    tolerance: float,
) -> str:
    if baseline is None:
        return "missing-baseline"
    if fresh is None:
        return "missing-fresh"
    if baseline == 0:
        # A zero baseline leaves no ratio to compare; fall back to the
        # tolerance as an absolute band around zero.
        worse = fresh < -tolerance if spec.higher_is_better else fresh > tolerance
        return "regression" if worse else "ok"
    ratio = fresh / baseline
    if spec.higher_is_better:
        if ratio < 1.0 - tolerance:
            return "regression"
        if ratio > 1.0 + tolerance:
            return "improved"
    else:
        if ratio > 1.0 + tolerance:
            return "regression"
        if ratio < 1.0 - tolerance:
            return "improved"
    return "ok"


def compare_payloads(
    file: str,
    baseline: Optional[Mapping[str, Any]],
    fresh: Optional[Mapping[str, Any]],
    specs: Iterable[MetricSpec],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Comparison]:
    """Compare one benchmark payload pair over the given metric specs.

    A missing payload (``None``) marks every metric on that side missing.
    """
    comparisons = []
    for spec in specs:
        base_value = lookup(baseline, spec.path) if baseline is not None else None
        fresh_value = lookup(fresh, spec.path) if fresh is not None else None
        comparisons.append(
            Comparison(
                file=file,
                path=spec.path,
                baseline=base_value,
                fresh=fresh_value,
                status=_classify(spec, base_value, fresh_value, tolerance),
                tolerance=tolerance,
            )
        )
    return comparisons


def _load(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare_files(
    baseline_dir,
    fresh_dir,
    tolerance: float = DEFAULT_TOLERANCE,
    files: Optional[Sequence[str]] = None,
) -> List[Comparison]:
    """Compare every guarded benchmark file under ``fresh_dir`` against
    its committed twin under ``baseline_dir``.

    ``files`` restricts the comparison to a subset of the guarded files
    (the CI ``wcoj-smoke`` step regenerates only ``BENCH_wcoj.json`` and
    checks just that)."""
    baseline_dir = pathlib.Path(baseline_dir)
    fresh_dir = pathlib.Path(fresh_dir)
    comparisons: List[Comparison] = []
    for file, specs in sorted(BASELINE_METRICS.items()):
        if files is not None and file not in files:
            continue
        comparisons.extend(
            compare_payloads(
                file,
                _load(baseline_dir / file),
                _load(fresh_dir / file),
                specs,
                tolerance,
            )
        )
    return comparisons


def has_regressions(comparisons: Sequence[Comparison]) -> bool:
    """True when any metric regressed or went missing from the fresh run."""
    return any(c.status in ("regression", "missing-fresh") for c in comparisons)


def render_report(comparisons: Sequence[Comparison]) -> str:
    """The comparisons as a plain-text table (the CI job's log output)."""
    table = Table(
        ["file", "metric", "baseline", "fresh", "fresh/base", "verdict"],
        title="Perf-regression sentinel",
    )
    for c in comparisons:
        table.add_row(
            c.file,
            c.path,
            "-" if c.baseline is None else f"{c.baseline:.4g}",
            "-" if c.fresh is None else f"{c.fresh:.4g}",
            "-" if c.ratio is None else f"{c.ratio:.3f}",
            c.status,
        )
    return table.render()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.obs.regress``."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="compare fresh BENCH_*.json runs against committed "
        "baselines; exit 1 on regression",
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory holding the committed baseline payloads "
        "(default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        help="directory holding the freshly regenerated payloads "
        "(default: the repository root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="accepted fractional noise band around each baseline "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the comparison report as JSON to PATH "
        "(uploaded as a CI artifact on failure)",
    )
    parser.add_argument(
        "--only",
        metavar="FILE",
        action="append",
        default=None,
        choices=sorted(BASELINE_METRICS),
        help="guard only this benchmark file (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    comparisons = compare_files(
        args.baseline_dir, args.fresh_dir, args.tolerance, files=args.only
    )
    print(render_report(comparisons))
    if args.json is not None:
        report = {
            "tolerance": args.tolerance,
            "regressed": has_regressions(comparisons),
            "comparisons": [c.to_dict() for c in comparisons],
        }
        pathlib.Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"\nwrote comparison report to {args.json}")
    if has_regressions(comparisons):
        print("\nPERF REGRESSION: at least one metric fell outside tolerance")
        return 1
    print("\nno regressions: all metrics within tolerance of the baselines")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
