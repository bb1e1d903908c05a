"""repro: a reproduction of Y. C. Tay, "On the Optimality of Strategies
for Multiple Joins" (PODS 1990 / JACM 40(5), 1993).

The library implements the paper end to end:

* a relational-algebra engine (:mod:`repro.relational`) and database
  model (:mod:`repro.database`) under the paper's tuple-count cost
  measure ``tau``;
* database schemes as hypergraphs with the paper's connectivity
  vocabulary and Fagin's acyclicity degrees (:mod:`repro.schemegraph`);
* strategy trees with the paper's predicates, cost, proof surgeries, and
  subspace enumeration (:mod:`repro.strategy`);
* decision procedures for conditions C1, C1', C2, C3, C4 and the
  semantic sufficient conditions of Sections 4-5
  (:mod:`repro.conditions`);
* optimizers over the four strategy subspaces -- exhaustive, dynamic
  programming, and greedy baselines (:mod:`repro.optimizer`);
* executable statements of Theorems 1-3 (:mod:`repro.theorems`);
* the paper's example databases and synthetic workload generators
  (:mod:`repro.workloads`);
* Section 5's union/intersection strategies (:mod:`repro.settheory`);
* execution tracing and metrics -- per-step tau spans, optimizer search
  counters, estimator Q-error telemetry (:mod:`repro.obs`, off by
  default and free when off);
* a resilient execution runtime -- deadlines, work budgets, cooperative
  cancellation, and graceful degradation to greedy fallback plans
  (:mod:`repro.runtime`; see docs/api.md).

Quickstart::

    from repro import database, relation, parse_strategy, tau_cost

    db = database(
        relation("AB", [("p", 0), ("q", 0)], name="R1"),
        relation("BC", [(0, "w"), (1, "x")], name="R2"),
        relation("CD", [("w", 7)], name="R3"),
    )
    s = parse_strategy(db, "((R1 R2) R3)")
    print(tau_cost(s), s.is_linear(), s.uses_cartesian_products())
"""

from repro.database import Database, database
from repro.errors import (
    AcyclicityError,
    DependencyError,
    OptimizerError,
    RelationError,
    ReproError,
    SchemaError,
    StrategyError,
)
from repro.optimizer import (
    OptimizationResult,
    SearchSpace,
    greedy_bushy,
    greedy_linear,
    optimize_dp,
    optimize_exhaustive,
)
from repro.conditions import (
    check_c1,
    check_c1_strict,
    check_c2,
    check_c3,
    check_c4,
    check_condition,
)
from repro.relational import FDSet, FunctionalDependency, Relation, Row, fd
from repro.relational.attributes import AttributeSet, attrs
from repro.relational.relation import relation
from repro.schemegraph import DatabaseScheme
from repro.strategy import (
    Strategy,
    all_strategies,
    count_all_strategies,
    count_linear_strategies,
    linear_strategies,
    parse_strategy,
    tau_cost,
)
from repro.query import JoinQuery, Plan, PlanProvenance
from repro.runtime import CancelToken, Deadline, Runtime, WorkBudget
from repro.errors import OperationCancelled
from repro.theorems import check_theorem1, check_theorem2, check_theorem3

__version__ = "9.2.0"

__all__ = [
    "Database",
    "database",
    "ReproError",
    "SchemaError",
    "RelationError",
    "StrategyError",
    "DependencyError",
    "AcyclicityError",
    "OptimizerError",
    "SearchSpace",
    "OptimizationResult",
    "optimize_exhaustive",
    "optimize_dp",
    "greedy_bushy",
    "greedy_linear",
    "check_c1",
    "check_c1_strict",
    "check_c2",
    "check_c3",
    "check_c4",
    "check_condition",
    "Relation",
    "Row",
    "relation",
    "FDSet",
    "FunctionalDependency",
    "fd",
    "AttributeSet",
    "attrs",
    "DatabaseScheme",
    "Strategy",
    "parse_strategy",
    "tau_cost",
    "all_strategies",
    "linear_strategies",
    "count_all_strategies",
    "count_linear_strategies",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "JoinQuery",
    "Plan",
    "PlanProvenance",
    "Runtime",
    "Deadline",
    "WorkBudget",
    "CancelToken",
    "OperationCancelled",
    "__version__",
]
