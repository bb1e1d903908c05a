"""Graceful degradation: the fallback path of the exact optimizers.

When an exhaustive or DP search exhausts its
:class:`~repro.runtime.Runtime` (deadline or budget), it must still
return *a* plan -- production optimizers bound their search and degrade,
they do not hang or raise.  The cheap safe answer is a greedy plan:

* linear target spaces fall back to :func:`~repro.optimizer.greedy
  .greedy_linear` (its output is linear by construction);
* bushy target spaces fall back to :func:`~repro.optimizer.greedy
  .greedy_bushy` -- unless the runtime's cached condition verdicts show
  C3 holds, in which case Theorem 3 guarantees the linear CP-avoiding
  space contains a tau-optimum and the (smaller, cheaper) linear
  heuristic is licensed instead.  With C1 ∧ C2 cached true, Theorem 2
  licenses reporting the CP-avoiding space as the searched subspace.

The fallback itself runs **unbounded** -- it is the floor; a second
exhaustion would leave nothing to serve -- and is deterministic for a
given database, which is what makes degraded plans byte-identical from
run to run (the partially-covered exact search is discarded, never
served: a partial minimum depends on timing).
"""

from __future__ import annotations

from repro.database import Database
from repro.optimizer.spaces import Degradation, OptimizationResult, SearchSpace
from repro.runtime.core import Runtime

__all__ = ["degrade_to_greedy"]


def _licensed_space(space: SearchSpace, runtime: Runtime) -> SearchSpace:
    """The subspace the fallback may restrict to, given the runtime's
    cached condition verdicts (Theorems 2/3).  Verdicts are only ever
    *narrowing* hints; missing or failed conditions keep the target
    space."""
    verdicts = runtime.condition_verdicts
    if space.linear_only:
        return space
    if verdicts.get("C3") is True:
        # Theorem 3: the linear CP-avoiding space holds a tau-optimum.
        return SearchSpace.LINEAR_NOCP
    if verdicts.get("C1") is True and verdicts.get("C2") is True:
        # Theorem 2: avoiding Cartesian products is safe.
        return SearchSpace.NOCP
    return space


def degrade_to_greedy(
    db: Database,
    space: SearchSpace,
    trigger: str,
    covered: int,
    runtime: Runtime,
    where: str,
) -> OptimizationResult:
    """The degraded result an exhausted exact search serves.

    ``covered`` is how many candidates/states the exact search examined
    before the runtime stopped it; ``where`` names the search for the
    telemetry (``"exhaustive"``/``"dp"``).  The returned result's
    ``optimizer`` is the *fallback's* name and its ``space`` stays the
    caller's target space (the plan is served *for* that request);
    ``degradation.fallback_space`` records what was actually searched.
    """
    from repro.optimizer.greedy import greedy_bushy, greedy_linear

    from repro.obs.recorder import get_recorder

    runtime.record_exhaustion(trigger, where)
    fallback_space = _licensed_space(space, runtime)
    if fallback_space.linear_only:
        fallback = greedy_linear(db)
    else:
        fallback = greedy_bushy(db)
    runtime.record_fallback(trigger, fallback.optimizer)
    degradation = Degradation(
        trigger=trigger,
        covered=covered,
        fallback=fallback.optimizer,
        fallback_space=fallback_space,
    )
    # The incident, with its full provenance, on the flight recorder --
    # this is the one place the Degradation exists before it is served.
    get_recorder().anomaly(
        "optimizer.degraded",
        provenance=degradation.to_dict(),
        where=where,
        space=space.value,
    )
    return OptimizationResult(
        fallback.strategy,
        fallback.cost,
        space,
        fallback.optimizer,
        fallback.considered,
        degradation=degradation,
    )
