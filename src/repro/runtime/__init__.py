"""The resilient execution runtime: deadlines, budgets, cancellation.

Every long-running entry point of the library -- the optimizers, the
condition checkers, :class:`~repro.query.JoinQuery`,
:meth:`~repro.obs.profile.RunReport.capture`, and the CLI
(``--timeout-ms`` / ``--budget``) -- accepts an optional ``runtime=``
:class:`Runtime`.  Within limits the results are bit-for-bit what the
unbounded run produces; on exhaustion the engine degrades instead of
raising (greedy fallback plans with ``degraded=True`` provenance,
three-valued ``TimedOut`` condition verdicts).  See
docs/api.md ("Runtime budgets & degradation").
"""

from repro.runtime.core import (
    BUDGET,
    DEADLINE,
    CancelToken,
    Deadline,
    Runtime,
    WorkBudget,
    current_runtime,
    using_runtime,
)

__all__ = [
    "BUDGET",
    "DEADLINE",
    "CancelToken",
    "Deadline",
    "Runtime",
    "WorkBudget",
    "current_runtime",
    "using_runtime",
]
