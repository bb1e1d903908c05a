"""Relational-algebra substrate.

This subpackage implements the data model of the paper's Section 2 as an
executable engine: attributes, relation schemes, relation states (sets of
tuples), and the algebra (natural join, projection, selection, semijoin,
set operations).  The paper reasons purely about tuple *counts* of
intermediate joins; this engine computes those counts exactly under set
semantics.

It also implements the dependency theory the paper's Section 4 leans on:
functional dependencies, attribute closures, superkeys and candidate keys,
and the tableau chase used to decide lossless joins.

Execution runs on the columnar kernel (:mod:`repro.relational.columnar`):
interned value ids, positional id tuples, and batch-at-a-time hash joins
over column blocks, with ``Row`` objects materialized only at API
boundaries (see docs/performance.md).  The multiway engines are chosen
per database, never here: ``Database(engine=...)`` takes ``"vector"``,
``"wcoj"`` (Generic Join for cyclic connected subsets), or
``"yannakakis"`` (semijoin reduction for acyclic connected subsets).
"""

from repro.relational.attributes import (
    AttributeSet,
    attrs,
    format_attrs,
)
from repro.relational.columnar import ColumnarTable
from repro.relational.relation import Relation, RelationSchema, Row
from repro.relational.dependencies import (
    FDSet,
    FunctionalDependency,
    fd,
)
from repro.relational.chase import (
    Tableau,
    chase_decomposition,
    is_lossless_decomposition,
)
from repro.relational.keys import (
    candidate_keys,
    is_superkey_of_relation,
    satisfies_fd,
    satisfied_fds,
)

__all__ = [
    "AttributeSet",
    "attrs",
    "format_attrs",
    "ColumnarTable",
    "Relation",
    "RelationSchema",
    "Row",
    "FDSet",
    "FunctionalDependency",
    "fd",
    "Tableau",
    "chase_decomposition",
    "is_lossless_decomposition",
    "candidate_keys",
    "is_superkey_of_relation",
    "satisfies_fd",
    "satisfied_fds",
]
