"""Strategy subspaces and optimizer results.

:class:`SearchSpace` names the four subspaces the paper discusses, with
the systems it cites as motivation:

* ``ALL`` -- every strategy (bushy trees, Cartesian products allowed);
* ``LINEAR`` -- linear strategies only (GAMMA);
* ``NOCP`` -- strategies avoiding Cartesian products (INGRES, Starburst);
* ``LINEAR_NOCP`` -- both restrictions (System R, Office-by-Example).

Each space knows how to test membership of a concrete strategy and
carries the flags the enumerators/optimizers consume.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.strategy.tree import Strategy

__all__ = ["SearchSpace", "Degradation", "OptimizationResult"]


class SearchSpace(enum.Enum):
    """A strategy subspace searched by an optimizer."""

    ALL = "all"
    LINEAR = "linear"
    NOCP = "nocp"
    LINEAR_NOCP = "linear_nocp"

    @property
    def linear_only(self) -> bool:
        """True when the space restricts to linear strategies."""
        return self in (SearchSpace.LINEAR, SearchSpace.LINEAR_NOCP)

    @property
    def avoids_cartesian_products(self) -> bool:
        """True when the space restricts to CP-avoiding strategies."""
        return self in (SearchSpace.NOCP, SearchSpace.LINEAR_NOCP)

    def contains(self, strategy: Strategy) -> bool:
        """Membership test for a concrete strategy."""
        if self.linear_only and not strategy.is_linear():
            return False
        if self.avoids_cartesian_products and not strategy.avoids_cartesian_products():
            return False
        return True

    def describe(self) -> str:
        """Human-readable name used in benchmark tables."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    SearchSpace.ALL: "all strategies",
    SearchSpace.LINEAR: "linear",
    SearchSpace.NOCP: "no Cartesian products",
    SearchSpace.LINEAR_NOCP: "linear, no Cartesian products",
}


class Degradation:
    """How and why a search gave up on exactness (docs/api.md).

    Attached to an :class:`OptimizationResult` (and surfaced through
    :class:`~repro.query.PlanProvenance`) when a
    :class:`~repro.runtime.Runtime` stopped the search:

    * ``trigger`` -- ``"deadline"`` or ``"budget"``;
    * ``covered`` -- candidates/states the exact search examined before
      exhaustion (how much of the space was covered);
    * ``fallback`` -- the polynomial optimizer that produced the served
      plan (``"greedy-bushy"`` / ``"greedy-linear"``);
    * ``fallback_space`` -- the subspace the fallback searched, chosen
      via the runtime's cached condition verdicts when those license a
      restriction (Theorem 2: C1 ∧ C2 makes NOCP safe; Theorem 3: C3
      makes the linear spaces safe).
    """

    __slots__ = ("trigger", "covered", "fallback", "fallback_space")

    def __init__(
        self,
        trigger: str,
        covered: int,
        fallback: str,
        fallback_space: "SearchSpace",
    ):
        self.trigger = trigger
        self.covered = covered
        self.fallback = fallback
        self.fallback_space = fallback_space

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (part of ``Plan.to_dict()``)."""
        return {
            "trigger": self.trigger,
            "covered": self.covered,
            "fallback": self.fallback,
            "fallback_space": self.fallback_space.value,
        }

    def __repr__(self) -> str:
        return (
            f"<Degradation {self.trigger}: fell back to {self.fallback}/"
            f"{self.fallback_space.value} after {self.covered} covered>"
        )


class OptimizationResult:
    """The outcome of one optimizer run.

    ``considered`` counts enumerated candidates (exhaustive) or solved DP
    states (dynamic programming) -- the search-effort number the paper's
    tractability discussion is about.  ``degradation`` is ``None`` for an
    exact result; a degraded run (deadline/budget exhaustion under a
    :class:`~repro.runtime.Runtime`) carries the :class:`Degradation`
    record and ``considered`` counts the *fallback's* own effort.
    """

    __slots__ = ("strategy", "cost", "space", "optimizer", "considered", "degradation")

    def __init__(
        self,
        strategy: Strategy,
        cost: int,
        space: SearchSpace,
        optimizer: str,
        considered: int,
        degradation: Optional[Degradation] = None,
    ):
        self.strategy = strategy
        self.cost = cost
        self.space = space
        self.optimizer = optimizer
        self.considered = considered
        self.degradation = degradation

    @property
    def degraded(self) -> bool:
        """True when the search exhausted its runtime and fell back."""
        return self.degradation is not None

    def __repr__(self) -> str:
        suffix = " degraded" if self.degraded else ""
        return (
            f"<OptimizationResult {self.optimizer}/{self.space.value}: "
            f"{self.strategy.describe()} @ tau={self.cost} "
            f"({self.considered} considered){suffix}>"
        )
