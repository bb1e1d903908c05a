"""Database schemes as hypergraphs.

The paper's Section 2 views a database scheme as a graph whose nodes are
relation schemes, with an edge between two nodes when they share an
attribute.  This subpackage implements that view (:mod:`scheme`), the
degrees of acyclicity from Fagin that Section 5 builds on
(:mod:`acyclicity`), join trees and the Section 5 redefinition of
connectedness for alpha-acyclic schemes (:mod:`jointree`), the subset
index that numbers a scheme's relations as bits for the subset DP, the
tau counter and the join-tree builds (:mod:`index`), and pairwise
consistency / semijoin reduction / Yannakakis evaluation
(:mod:`consistency`).
"""

from repro.schemegraph.scheme import (
    DatabaseScheme,
    are_linked,
    scheme_of,
)
from repro.schemegraph.acyclicity import (
    gyo_reduction,
    is_alpha_acyclic,
    is_beta_acyclic,
    is_gamma_acyclic,
    find_gamma_cycle,
)
from repro.schemegraph.jointree import (
    JoinTree,
    build_join_tree,
    all_join_trees,
    connected_in_some_join_tree,
)
from repro.schemegraph.consistency import (
    is_pairwise_consistent,
    full_reduce,
    semijoin_program,
    yannakakis,
)

__all__ = [
    "DatabaseScheme",
    "are_linked",
    "scheme_of",
    "gyo_reduction",
    "is_alpha_acyclic",
    "is_beta_acyclic",
    "is_gamma_acyclic",
    "find_gamma_cycle",
    "JoinTree",
    "build_join_tree",
    "all_join_trees",
    "connected_in_some_join_tree",
    "is_pairwise_consistent",
    "full_reduce",
    "semijoin_program",
    "yannakakis",
]
