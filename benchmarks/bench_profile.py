"""E-PROF: the EXPLAIN ANALYZE profiler on the standard chain workload.

The profiler (:mod:`repro.obs.profile`) runs the DP-optimal plan once,
as ``Plan.execute`` does, and reports one row per operator that ran:
estimated vs actual tau, Q-error, wall time, kernel counters, and cache
traffic.  This experiment pins the profiler's *accounting* invariants
on the same 6-relation chain the observability-overhead bench uses,
whose plan executes binary (its rho, 1.12, is below the router's 1.2):

* the summed actual taus equal the plan's true cost (the paper's
  ``tau(S) = sum tau(s_i)``), and so do the tuples the steps' hash
  joins produced;
* every step's Q-error is >= 1 (the symmetric ratio's floor);
* the kernel counters are live (every step really probes);
* capture restores the observability state it found.

The rendered table lands in ``benchmarks/results/E-PROF_explain.txt``
and is assembled into RESULTS.md by ``collect_results.py``.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # standalone-script entry
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.obs as obs  # noqa: E402
from repro.obs.profile import RunReport  # noqa: E402
from repro.optimizer.dp import optimize_dp  # noqa: E402
from repro.workloads.generators import WorkloadSpec  # noqa: E402

RELATIONS = 6
SPEC = WorkloadSpec(size=20, domain=6, shape="chain", relations=RELATIONS, seed=0)


def _db(seed: int = 0):
    spec = SPEC
    if seed != SPEC.seed:
        spec = WorkloadSpec(
            size=SPEC.size,
            domain=SPEC.domain,
            shape=SPEC.shape,
            relations=SPEC.relations,
            seed=seed,
        )
    return spec.build()


def test_profiler_accounting(record):
    assert not obs.is_enabled()
    report = RunReport.capture(_db(), workload=SPEC)
    assert not obs.is_enabled(), "capture must restore the observability state"

    # tau(S) = sum of the steps' actual taus, and it matches the DP optimum.
    assert report.tau == sum(step.actual for step in report.steps)
    assert report.tau == optimize_dp(_db()).cost
    assert len(report.steps) == RELATIONS - 1

    for step in report.steps:
        assert step.q_error >= 1.0
        assert step.wall_ns >= 0
    # Every step really runs the hash join, which produces the step's tau.
    assert sum(step.probes for step in report.steps) > 0
    assert sum(step.output_tuples for step in report.steps) == report.tau

    record("E-PROF_explain", report.render())
    obs.reset()
