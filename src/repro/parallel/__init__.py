"""Process-pool fan-out for exhaustive optimization and sampled costing.

Exhaustive optimization costs every strategy tree of a search space,
and :func:`~repro.strategy.sampling.cost_distribution` costs a batch of
sampled ones; both decompose into independent tasks.  This package runs
those tasks across a pool of forked workers while guaranteeing
**byte-identical results** with the sequential code paths (``jobs=``).

The condition checkers and the counterexample campaigns have no
``jobs=``: on the subset index a condition sweep takes milliseconds,
less than forking a pool costs (docs/performance.md has the readings).

The layering is deliberate:

* :mod:`repro.parallel.context` -- the generic machinery: a picklable
  :class:`DatabaseSnapshot`, the worker lifecycle, and the merge of
  per-worker tau-cache entries, metrics, and trace spans back into the
  parent (:class:`ParallelContext`).
* :mod:`repro.parallel.exhaustive` -- the two fan-outs.

Only the context helpers are re-exported here.  The fan-out module
imports its sequential counterparts (``optimizer/exhaustive.py`` and
friends), which in turn lazily import :mod:`repro.parallel` to resolve a
``jobs=`` argument -- keeping it out of this namespace avoids the cycle.
"""

from repro.parallel.context import (
    SEGMENT_PREFIX,
    START_METHOD,
    DatabaseSnapshot,
    ParallelContext,
    live_segments,
    oversubscription_allowed,
    parallel_available,
    resolve_jobs,
    shared_memory_available,
    visible_cpus,
    warm_connected_taus,
    worker_runtime,
)

__all__ = [
    "SEGMENT_PREFIX",
    "START_METHOD",
    "DatabaseSnapshot",
    "ParallelContext",
    "live_segments",
    "oversubscription_allowed",
    "parallel_available",
    "resolve_jobs",
    "shared_memory_available",
    "visible_cpus",
    "warm_connected_taus",
    "worker_runtime",
]
