"""A high-level query API over the library.

:class:`JoinQuery` is the front door a downstream user actually wants:
wrap a database (= the relations mentioned by a natural-join query), ask
for a plan from any of the paper's search subspaces, explain it, execute
it, and interrogate the paper's conditions to know *whether the chosen
subspace was safe*::

    query = JoinQuery(db)
    plan = query.optimize(SearchSpace.LINEAR_NOCP)
    print(plan.explain())
    if not query.subspace_is_safe(SearchSpace.LINEAR_NOCP):
        print("warning: C3 fails; the linear no-CP space may miss the optimum")
    result = plan.execute()

The safety test is exactly the paper's contribution: Theorem 2 makes
``NOCP`` safe under C1 ∧ C2, Theorem 3 makes ``LINEAR_NOCP`` (and
``LINEAR``) safe under C3.

Pass a :class:`~repro.runtime.Runtime` to bound the whole session:
searches degrade to a greedy plan instead of raising, and condition
checks may report a three-valued timed-out verdict
(:class:`~repro.conditions.checks.TimedOut`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.conditions.checks import check_c1, check_c2, check_c3
from repro.database import Database
from repro.errors import OptimizerError
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import CardinalityEstimator
from repro.optimizer.greedy import greedy_bushy, greedy_linear
from repro.optimizer.route import ComponentExecution, EngineRouter
from repro.optimizer.spaces import Degradation, OptimizationResult, SearchSpace
from contextlib import nullcontext

from repro.relational.attributes import AttributeSet, format_attrs
from repro.relational.relation import Relation
from repro.runtime.core import Runtime, using_runtime
from repro.strategy.cost import step_costs, tau_cost
from repro.strategy.tree import Strategy, parse_strategy, run

__all__ = ["JoinQuery", "Plan", "PlanProvenance"]


class PlanProvenance:
    """Where a plan came from and what it claims.

    ``cost`` is the plan's true tau; ``space`` the subspace it was
    requested from; ``optimizer`` the algorithm that produced it;
    ``degradation`` -- ``None`` for an exact result -- the
    :class:`~repro.optimizer.spaces.Degradation` record when a bounded
    search exhausted its :class:`~repro.runtime.Runtime` and served the
    greedy fallback instead; ``routing`` -- set by :class:`JoinQuery`
    and the CLI, ``None`` otherwise -- the
    :class:`~repro.optimizer.route.EngineRouting` record ``explain``
    prints (the database's pin, the scheme's shape, the AGM bound of a
    connected scheme); and ``execution`` the plan's
    :class:`~repro.optimizer.route.ComponentExecution` records once
    :attr:`Plan.execution` has decided them.
    """

    __slots__ = ("cost", "space", "optimizer", "degradation", "routing", "execution")

    def __init__(
        self,
        cost: int,
        space: SearchSpace,
        optimizer: str,
        degradation: Optional[Degradation] = None,
        routing=None,
    ):
        self.cost = cost
        self.space = space
        self.optimizer = optimizer
        self.degradation = degradation
        self.routing = routing
        self.execution = None

    @property
    def degraded(self) -> bool:
        """True when the plan is a runtime-exhaustion fallback."""
        return self.degradation is not None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in ``Plan.to_dict()``)."""
        return {
            "cost": self.cost,
            "space": self.space.value,
            "optimizer": self.optimizer,
            "degraded": self.degraded,
            "degradation": (
                self.degradation.to_dict() if self.degradation is not None else None
            ),
            "routing": (
                self.routing.to_dict() if self.routing is not None else None
            ),
            "execution": (
                [record.to_dict() for record in self.execution]
                if self.execution is not None
                else None
            ),
        }

    def __repr__(self) -> str:
        suffix = " degraded" if self.degraded else ""
        return (
            f"<PlanProvenance {self.optimizer}/{self.space.value} "
            f"tau={self.cost}{suffix}>"
        )


#: ``safety_report``'s per-space keys, in ``SearchSpace`` order.
_SAFE_KEYS = tuple((space, f"safe[{space.value}]") for space in SearchSpace)


def _render(
    node: Strategy, depth: int, bit_of: Dict[AttributeSet, int]
) -> Tuple[str, List[str], int]:
    """``node.describe()``, the explain lines of its subtree (children
    in ``describe()`` order) and its subset's mask (``bit_of`` maps each
    relation scheme to its subset-index bit).  Each subtree is described
    once, where calling ``describe()`` per node would re-render it at
    every ancestor, and a step's tau is read by its mask."""
    indent = "  " * depth
    if node.is_leaf:
        (scheme,) = node.scheme_set.schemes
        # A leaf's tau is its state's length: no subset-cache lookup.
        rel = node.database.state_for(scheme)
        name = rel.name or format_attrs(scheme)
        return name, [f"{indent}scan {name} [tau={len(rel)}]"], bit_of[scheme]
    first = _render(node.left, depth + 1, bit_of)
    second = _render(node.right, depth + 1, bit_of)
    if second[:2] < first[:2]:
        first, second = second, first
    label = f"({first[0]} ⋈ {second[0]})"
    mask = first[2] | second[2]
    lines = [f"{indent}join {label} [tau={node.database.tau_of_mask(mask)}]"]
    lines += first[1]
    lines += second[1]
    return label, lines, mask


class Plan:
    """An executable join plan: a strategy plus provenance.

    Plans are produced by :class:`JoinQuery`; ``execute`` runs the
    strategy and returns the final relation, ``explain`` renders the
    tree with per-step sizes and how each component executes.
    ``cost``/``space``/``optimizer`` read through to the
    :class:`PlanProvenance` record in ``plan.provenance``.
    """

    __slots__ = ("strategy", "provenance")

    def __init__(
        self,
        strategy: Strategy,
        cost: int,
        space: SearchSpace,
        optimizer: str,
        degradation: Optional[Degradation] = None,
    ):
        self.strategy = strategy
        self.provenance = PlanProvenance(cost, space, optimizer, degradation)

    @classmethod
    def from_result(cls, result: OptimizationResult) -> "Plan":
        """Wrap an optimizer result (degradation rides along)."""
        return cls(
            result.strategy,
            result.cost,
            result.space,
            result.optimizer,
            degradation=result.degradation,
        )

    @property
    def cost(self) -> int:
        """The plan's true tau (from the provenance record)."""
        return self.provenance.cost

    @property
    def space(self) -> SearchSpace:
        """The subspace the plan was requested from."""
        return self.provenance.space

    @property
    def optimizer(self) -> str:
        """The algorithm that produced the plan."""
        return self.provenance.optimizer

    @property
    def degradation(self) -> Optional[Degradation]:
        """The degradation record, or ``None`` for an exact plan."""
        return self.provenance.degradation

    @property
    def degraded(self) -> bool:
        """True when the plan is a runtime-exhaustion fallback."""
        return self.provenance.degraded

    @property
    def execution(self) -> Tuple[ComponentExecution, ...]:
        """How :meth:`execute` runs each component of three or more
        relations (:meth:`EngineRouter.execution`), decided on first
        use and kept on the provenance record."""
        provenance = self.provenance
        if provenance.execution is None:
            provenance.execution = EngineRouter.execution(self.strategy, self.cost)
        return provenance.execution

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image of the plan and its provenance."""
        out = {
            "strategy": self.strategy.describe(),
            "linear": self.is_linear,
            "cartesian_products": self.uses_cartesian_products,
        }
        out.update(self.provenance.to_dict())
        out["execution"] = [record.to_dict() for record in self.execution]
        return out

    def execute(self) -> Relation:
        """The final relation, computed by running the strategy.

        Every step joins its children's states with the vector hash
        join and memoizes the result under its subset in the database's
        join memo, so ``Strategy.state``, ``tau_of`` and a second
        ``execute()`` read it back.  A component that :attr:`execution`
        hands to a kernel runs on that kernel through the database's
        kernel entry instead (runtime fallback included).  On a plan
        executed binary, the steps produce exactly ``cost`` tuples.
        """
        kernels = {
            record.subset: record.engine
            for record in self.execution
            if record.engine != "plan"
        }
        return run(self.strategy, kernels)

    def explain(self) -> str:
        """A plan tree rendering with per-node tau, root first::

            ⋈ [tau=11]  (MS ⋈ SC) ⋈ (CI ⋈ ID)
              ⋈ [tau=3]   MS ⋈ SC
              ...
        """
        bit_of = self.strategy.database.scheme.subset_index().bit_of
        label, tree, _ = _render(self.strategy, 1, bit_of)
        lines = [
            f"plan: {label}",
            f"space: {self.space.describe()}  optimizer: {self.optimizer}  "
            f"tau: {self.cost}",
        ]
        routing = self.provenance.routing
        if routing is not None:
            lines.append(routing.describe())
            if routing.cover is not None:
                lines.append(
                    f"agm: tau <= {routing.cover.bound:.6g} "
                    f"(binary plan tau: {self.cost})"
                )
            lines.extend(routing.structure_lines())
        lines.extend(record.describe() for record in self.execution)
        if self.degraded:
            record = self.provenance.degradation
            lines.append(
                f"degraded: {record.trigger} exhausted; served "
                f"{record.fallback} over {record.fallback_space.describe()} "
                f"({record.covered} candidates covered before exhaustion)"
            )
        lines.extend(tree)
        return "\n".join(lines)

    def pipeline(self):
        """The (description, tau) trace of the steps, post-order."""
        return step_costs(self.strategy)

    @property
    def is_linear(self) -> bool:
        """True for a linear plan."""
        return self.strategy.is_linear()

    @property
    def uses_cartesian_products(self) -> bool:
        """True when some step is a Cartesian product."""
        return self.strategy.uses_cartesian_products()

    def __repr__(self) -> str:
        return f"<Plan {self.strategy.describe()} tau={self.cost}>"


class JoinQuery:
    """A natural-join query over a database, with plan search and the
    paper's safety analysis.

    ``runtime`` (a :class:`~repro.runtime.Runtime`, optional) bounds all
    work launched through the query: exact searches degrade to greedy
    fallbacks on exhaustion, and condition checks may return the
    three-valued :class:`~repro.conditions.checks.TimedOut` verdict.
    Decided condition verdicts are fed back into
    ``runtime.condition_verdicts`` so a later degraded search can pick a
    theorem-licensed fallback subspace.
    """

    def __init__(self, db: Database, runtime: Optional[Runtime] = None):
        self._routing = EngineRouter(db).route()
        self._db = db
        self._runtime = runtime
        self._condition_cache: Dict[str, bool] = {}

    @property
    def runtime(self) -> Optional[Runtime]:
        """The runtime bounding this query's work (or ``None``)."""
        return self._runtime

    @property
    def database(self) -> Database:
        """The database the query plans on: the one it was given."""
        return self._db

    @property
    def routing(self):
        """The :class:`~repro.optimizer.route.EngineRouting` record the
        query was built with: the database's pin and scheme facts, as
        ``explain`` prints them."""
        return self._routing

    # -- planning --------------------------------------------------------------

    def _ambient(self):
        """Install the query's runtime as the ambient one for the scope
        of an entry point, so kernels reached through the database's
        memoized joins (the wcoj expansion in particular) observe its
        deadline/budget."""
        if self._runtime is None:
            return nullcontext()
        return using_runtime(self._runtime)

    def _finish(self, plan: Plan) -> Plan:
        """Stamp the query's routing record onto a plan's provenance."""
        plan.provenance.routing = self._routing
        return plan

    def optimize(
        self,
        space: SearchSpace = SearchSpace.ALL,
        use_estimates: bool = False,
    ) -> Plan:
        """An exact cheapest plan in ``space`` (subset DP).

        With ``use_estimates`` the DP runs on the classical
        uniformity/independence estimates instead of true sizes -- the
        plan's reported ``cost`` is then its *true* tau, which may exceed
        the optimum (see :mod:`repro.optimizer.estimate`).
        """
        with self._ambient():
            if use_estimates:
                estimator = CardinalityEstimator.from_database(self._db)
                believed = optimize_dp(
                    self._db,
                    space,
                    subset_cost=lambda key: estimator.estimate(key),
                    runtime=self._runtime,
                )
                return self._finish(Plan(
                    believed.strategy,
                    tau_cost(believed.strategy),
                    space,
                    "dp+estimates" if not believed.degraded else believed.optimizer,
                    degradation=believed.degradation,
                ))
            return self._finish(Plan.from_result(
                optimize_dp(self._db, space, runtime=self._runtime)
            ))

    def plan_greedy(self, linear: bool = False) -> Plan:
        """A polynomial-time heuristic plan (GOO-style or linear)."""
        with self._ambient():
            if linear:
                result = greedy_linear(self._db, runtime=self._runtime)
            else:
                result = greedy_bushy(self._db, runtime=self._runtime)
            return self._finish(Plan.from_result(result))

    def plan_ikkbz(self) -> Plan:
        """The IK/KBZ rank-optimal linear order (tree query graphs only).

        The plan's ``cost`` is its *true* tau; the rank algorithm
        optimized the estimated cost (see :mod:`repro.optimizer.ikkbz`).
        Raises :class:`~repro.errors.OptimizerError` on non-tree query
        graphs.
        """
        from repro.optimizer.ikkbz import ikkbz

        with self._ambient():
            result = ikkbz(self._db, runtime=self._runtime)
            return self._finish(Plan(
                result.strategy, tau_cost(result.strategy),
                SearchSpace.LINEAR, "ikkbz",
            ))

    def plan_from_text(self, text: str) -> Plan:
        """Wrap a hand-written parenthesized strategy as a plan."""
        with self._ambient():
            strategy = parse_strategy(self._db, text)
            return self._finish(
                Plan(strategy, tau_cost(strategy), SearchSpace.ALL, "manual")
            )

    def execute(self, plan: Optional[Plan] = None) -> Relation:
        """Execute a plan (default: the best unrestricted plan)."""
        chosen = plan if plan is not None else self.optimize()
        with self._ambient():
            return chosen.execute()

    # -- the paper's safety analysis -----------------------------------------------

    def condition(self, name: str):
        """Cached verdict of one of C1 / C2 / C3 on this database.

        Three-valued under a runtime: ``True``, ``False``, or a
        :class:`~repro.conditions.checks.TimedOut` when the bounded
        sweep could not decide.  Timed-out verdicts are **not** cached
        (a later call with allowance left may decide); decided verdicts
        are cached and fed into ``runtime.condition_verdicts``.
        """
        key = name.upper()
        if key not in self._condition_cache:
            checker = {"C1": check_c1, "C2": check_c2, "C3": check_c3}.get(key)
            if checker is None:
                raise OptimizerError(f"unknown condition {name!r}")
            report = checker(self._db, runtime=self._runtime)
            if not report.decided:
                return report.holds
            self._condition_cache[key] = report.holds
            if self._runtime is not None:
                self._runtime.condition_verdicts[key] = report.holds
        return self._condition_cache[key]

    def subspace_is_safe(self, space: SearchSpace):
        """True when the paper *guarantees* the subspace contains a
        tau-optimum strategy for this database:

        * ``ALL`` -- always;
        * ``NOCP`` -- under C1 ∧ C2 (Theorem 2);
        * ``LINEAR`` and ``LINEAR_NOCP`` -- under C3 (Theorem 3).

        ``False`` means "no guarantee", not "provably unsafe" (the
        theorems are sufficient conditions).  Under a runtime the answer
        is three-valued: a :class:`~repro.conditions.checks.TimedOut`
        comes back when the deciding check could not finish -- unless a
        decided ``False`` already settles the question.
        """
        if space is SearchSpace.ALL:
            return True
        return self._theorems_apply() and self._guarantee(space)

    def _theorems_apply(self) -> bool:
        """Theorems 2 and 3 assume a connected scheme (which the routing
        record already holds) and ``R_D ≠ ∅``."""
        return self._routing.connected and self._db.is_nonnull()

    def _guarantee(self, space: SearchSpace):
        """The theorem's verdict for a restricted ``space``, given that
        the theorems apply."""
        if space is SearchSpace.NOCP:
            c1 = self.condition("C1")
            c2 = self.condition("C2")
            # A decided False settles "no guarantee" even when the other
            # check timed out; only an undecided conjunction stays open.
            if c1 is False or c2 is False:
                return False
            if not isinstance(c1, bool):
                return c1
            if not isinstance(c2, bool):
                return c2
            return True
        return self.condition("C3")

    def safety_report(self) -> Dict[str, object]:
        """Conditions and per-space safety in one dictionary.  Values
        are three-valued under a runtime (see :meth:`condition`)."""
        report = {name: self.condition(name) for name in ("C1", "C2", "C3")}
        applies = self._theorems_apply()
        for space, key in _SAFE_KEYS:
            report[key] = space is SearchSpace.ALL or (
                applies and self._guarantee(space)
            )
        return report

    def __repr__(self) -> str:
        return f"<JoinQuery over {self._db.scheme}>"
