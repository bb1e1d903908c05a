"""Deadlines, work budgets, and cooperative cancellation.

The paper's subspaces exist because exhaustive tau-optimization explodes
combinatorially; a serving system therefore needs every search to be
*boundable*.  This module provides the three bounding primitives and the
:class:`Runtime` context that carries them through the engine:

* :class:`Deadline` -- a wall-clock cutoff on the monotonic clock.  The
  target instant is a plain float, so one deadline bounds a whole
  request across every layer it reaches.
* :class:`WorkBudget` -- a cap on abstract work units (strategy
  costings, DP state expansions, condition instances, produced tuples).
  Charging is a plain int bump, so hot loops can charge per unit.
* :class:`CancelToken` -- a cooperative cancellation flag: one bool,
  so another thread's :meth:`~CancelToken.cancel` reaches the running
  work at its next charge.

Exhaustion is **not** an error: :meth:`Runtime.charge` returns a trigger
string (``"deadline"`` or ``"budget"``) and the searches degrade
gracefully -- exhaustive/DP fall back to a greedy plan whose provenance
records the degradation, condition checks return a three-valued
:class:`~repro.conditions.checks.TimedOut` verdict.  Explicit
cancellation *is* an error (the caller asked for the result to be
abandoned): ``charge``/``exhausted`` raise
:class:`~repro.errors.OperationCancelled`.

Degradations are observable (docs/observability.md): the
``runtime.timeout`` / ``runtime.budget_exhausted`` / ``runtime.fallback``
/ ``runtime.cancelled`` counters and ``runtime.degraded`` events let the
regression sentinel track degradation rates.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.errors import OperationCancelled, ReproError
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.trace import get_tracer

__all__ = [
    "CancelToken",
    "Deadline",
    "Runtime",
    "WorkBudget",
    "DEADLINE",
    "BUDGET",
    "current_runtime",
    "using_runtime",
]

#: The two exhaustion triggers :meth:`Runtime.charge` can report.
DEADLINE = "deadline"
BUDGET = "budget"

_TRACER = get_tracer()
_METRICS = get_registry()
_TIMEOUTS = _METRICS.counter(
    "runtime.timeout", "searches stopped by a deadline"
)
_BUDGETS = _METRICS.counter(
    "runtime.budget_exhausted", "searches stopped by a work budget"
)
_FALLBACKS = _METRICS.counter(
    "runtime.fallback", "degraded plans served by a fallback optimizer"
)
_CANCELLED = _METRICS.counter(
    "runtime.cancelled", "operations abandoned by cooperative cancellation"
)


class Deadline:
    """A wall-clock cutoff: ``time.monotonic()`` must stay below ``at``.

    Build one with :meth:`after_ms` (or :meth:`after` for seconds).  The
    cutoff is an absolute monotonic instant, so one deadline can bound a
    whole request across optimizers and condition checks.
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        if seconds < 0:
            raise ReproError(f"deadline must be nonnegative, got {seconds}")
        return cls(time.monotonic() + seconds)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now."""
        return cls.after(milliseconds / 1000.0)

    def expired(self) -> bool:
        """True once the cutoff has passed."""
        return time.monotonic() >= self.at

    def remaining_ms(self) -> float:
        """Milliseconds until the cutoff (clamped at 0)."""
        return max(0.0, (self.at - time.monotonic()) * 1000.0)

    def __repr__(self) -> str:
        return f"<Deadline {self.remaining_ms():.1f}ms remaining>"


class WorkBudget:
    """A cap on abstract work units.

    ``limit`` is the total allowance; :meth:`charge` spends units and
    reports whether the budget survived.  What a "unit" is depends on
    the caller: the exhaustive optimizer charges one per strategy
    costed, the DP one per state expanded, the condition checkers one
    per quantifier instance.  One budget bounds the whole run.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        if limit < 1:
            raise ReproError(f"work budget must be positive, got {limit}")
        self.limit = int(limit)
        self.spent = 0

    def charge(self, units: int = 1) -> bool:
        """Spend ``units``; False once the budget is exhausted."""
        self.spent += units
        return self.spent <= self.limit

    @property
    def exhausted(self) -> bool:
        """True once more than ``limit`` units were charged."""
        return self.spent > self.limit

    @property
    def remaining(self) -> int:
        """Unspent units (clamped at 0)."""
        return max(0, self.limit - self.spent)

    def __repr__(self) -> str:
        return f"<WorkBudget {self.spent}/{self.limit}>"


class CancelToken:
    """A cooperative cancellation flag.

    ``cancel()`` flips the token (from any thread); running work
    notices at its next :meth:`Runtime.charge` and raises
    :class:`~repro.errors.OperationCancelled`.
    """

    __slots__ = ("_flag",)

    def __init__(self) -> None:
        self._flag = False

    def cancel(self) -> None:
        """Request cancellation (idempotent and thread-safe)."""
        self._flag = True

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._flag

    def __repr__(self) -> str:
        return f"<CancelToken {'cancelled' if self.cancelled else 'live'}>"


class Runtime:
    """The resilience context a request threads through the engine.

    Combines an optional :class:`Deadline`, :class:`WorkBudget`, and
    :class:`CancelToken`, plus the request's *cached condition verdicts*
    (``{"C1": True, ...}``) -- when a search degrades, the fallback uses
    them to pick a subspace the paper proves safe (Theorem 2/3) instead
    of guessing.

    Hot loops call :meth:`charge` once per work unit: it spends the
    budget, polls the deadline, and checks the token, returning ``None``
    (keep going) or the exhaustion trigger (``"deadline"``/``"budget"``)
    -- and raising :class:`~repro.errors.OperationCancelled` on an
    explicit cancel.
    """

    __slots__ = ("deadline", "budget", "token", "condition_verdicts")

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        budget: Optional[WorkBudget] = None,
        token: Optional[CancelToken] = None,
        condition_verdicts: Optional[Dict[str, bool]] = None,
    ):
        self.deadline = deadline
        self.budget = budget
        self.token = token
        self.condition_verdicts: Dict[str, bool] = dict(condition_verdicts or {})

    @classmethod
    def with_limits(
        cls,
        timeout_ms: Optional[float] = None,
        budget: Optional[int] = None,
        token: Optional[CancelToken] = None,
    ) -> Optional["Runtime"]:
        """A runtime from CLI-style limits, or ``None`` when unbounded
        (so callers can pass the result straight through)."""
        if timeout_ms is None and budget is None and token is None:
            return None
        return cls(
            deadline=Deadline.after_ms(timeout_ms) if timeout_ms is not None else None,
            budget=WorkBudget(budget) if budget is not None else None,
            token=token,
        )

    # -- the hot-path protocol ---------------------------------------------

    def _check_cancelled(self) -> None:
        token = self.token
        if token is not None and token.cancelled:
            if _METRICS.enabled:
                _CANCELLED.inc()
            get_recorder().anomaly(
                "runtime.cancelled", units_spent=self.units_spent
            )
            raise OperationCancelled("operation cancelled by its CancelToken")

    def charge(self, units: int = 1) -> Optional[str]:
        """Spend ``units`` of work; ``None`` to continue, else the
        exhaustion trigger.  Raises
        :class:`~repro.errors.OperationCancelled` on a cancelled token.
        """
        self._check_cancelled()
        budget = self.budget
        if budget is not None and not budget.charge(units):
            return BUDGET
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            return DEADLINE
        return None

    def exhausted(self) -> Optional[str]:
        """The current trigger without charging any work (``None`` while
        within limits).  Raises on a cancelled token."""
        self._check_cancelled()
        budget = self.budget
        if budget is not None and budget.exhausted:
            return BUDGET
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            return DEADLINE
        return None

    @property
    def units_spent(self) -> int:
        """Work units charged so far (0 without a budget)."""
        return self.budget.spent if self.budget is not None else 0

    # -- telemetry ----------------------------------------------------------

    def record_exhaustion(self, trigger: str, where: str) -> None:
        """Count an exhaustion and emit a ``runtime.degraded`` event.
        The moment also lands in the (always-on) flight-recorder ring;
        the bundle dump itself happens where the degradation provenance
        is built (:mod:`repro.optimizer.fallback`, the condition
        checkers), so one incident yields one bundle."""
        if _METRICS.enabled:
            (_TIMEOUTS if trigger == DEADLINE else _BUDGETS).inc(where=where)
        if _TRACER.enabled:
            _TRACER.event(
                "runtime.degraded",
                where=where,
                trigger=trigger,
                units_spent=self.units_spent,
            )
        get_recorder().record(
            "event",
            "runtime.exhausted",
            where=where,
            trigger=trigger,
            units_spent=self.units_spent,
        )

    def record_fallback(self, trigger: str, fallback: str) -> None:
        """Count a degraded plan served by ``fallback``."""
        if _METRICS.enabled:
            _FALLBACKS.inc(trigger=trigger, fallback=fallback)

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline.remaining_ms():.1f}ms")
        if self.budget is not None:
            parts.append(f"budget={self.budget.spent}/{self.budget.limit}")
        if self.token is not None:
            parts.append("cancellable")
        return f"<Runtime {' '.join(parts) or 'unbounded'}>"


# -- the ambient runtime --------------------------------------------------------

#: The runtime installed by :func:`using_runtime` for code that cannot
#: take a ``runtime=`` parameter (deep execution layers like the wcoj
#: kernel, reached through Database's memoized join cache).  A plain
#: module global, not a contextvar: the engine's hot paths are
#: single-threaded per process.
_AMBIENT: Optional[Runtime] = None


def current_runtime() -> Optional[Runtime]:
    """The ambient :class:`Runtime` installed by :func:`using_runtime`,
    or ``None`` when the current work is unbounded."""
    return _AMBIENT


@contextmanager
def using_runtime(runtime: Optional[Runtime]) -> Iterator[Optional[Runtime]]:
    """Install ``runtime`` as the ambient runtime for the enclosed block.

    Execution layers that are reached through caches rather than call
    chains (the wcoj Generic-Join kernel inside
    :meth:`~repro.database.Database.join_of`) poll
    :func:`current_runtime` so their inner loops observe the same
    deadline/budget the caller threaded everywhere else.  ``None`` is
    accepted and clears the ambient runtime for the block.  Nesting
    restores the previous runtime on exit.
    """
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = runtime
    try:
        yield runtime
    finally:
        _AMBIENT = previous
