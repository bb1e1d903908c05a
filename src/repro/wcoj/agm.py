"""The AGM bound: fractional edge covers of the scheme hypergraph.

Atserias, Grohe, and Marx: for a natural join over relation schemes
``E`` (hyperedges over the attribute vertices) with sizes ``N_e``, any
fractional edge cover ``x`` -- ``x_e >= 0`` with
``sum_{e ∋ v} x_e >= 1`` for every attribute ``v`` -- bounds the output:

    tau(join)  <=  prod_e N_e ** x_e .

The tightest such bound is the LP minimum of ``sum_e x_e * log2(N_e)``,
and Generic Join runs within that bound (up to a log factor), which is
what makes it *worst-case optimal*.  On the triangle with ``N`` tuples
per relation the optimal cover is ``x = (1/2, 1/2, 1/2)`` and the bound
is ``N ** 1.5`` -- strictly below the ``Θ(N²)`` intermediate every
binary plan can be forced to pay.

The LP is solved exactly here, with no external solver, by running a
primal simplex on the LP's *dual*::

    maximize   sum_v y_v
    subject to sum_{v in e} y_v <= log2(N_e)   for every edge e
               y >= 0

whose slack basis is immediately feasible (``log2(N_e) >= 0``), so no
two-phase setup is needed.  By strong duality the optimal objectives
coincide, and the primal cover weights ``x_e`` are read off the final
tableau as the reduced costs of the slack columns.  Bland's rule makes
the pivoting finite even on degenerate schemes.  Scheme sizes in this
reproduction are tiny (3-10 relations, tens of attributes), so the
dense tableau is more than fast enough.
"""

from __future__ import annotations

from math import log2
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError
from repro.relational.attributes import AttributeSet

__all__ = ["FractionalEdgeCover", "fractional_edge_cover"]

#: Pivoting / reduced-cost tolerance of the tableau simplex.
_EPS = 1e-9


class FractionalEdgeCover:
    """An optimal fractional edge cover and the AGM bound it certifies.

    ``bound`` is ``prod N_e ** x_e`` (a float; exact arithmetic is not
    needed for an explain line), ``log2_bound`` its logarithm (the LP
    objective), and ``weights`` the cover itself, keyed by relation
    scheme.
    """

    __slots__ = ("log2_bound", "weights")

    def __init__(self, log2_bound: float, weights: Dict[AttributeSet, float]):
        self.log2_bound = log2_bound
        self.weights = weights

    @property
    def bound(self) -> float:
        """The AGM output bound ``2 ** log2_bound`` (``inf``-safe: the
        schemes here never push the exponent near overflow)."""
        return 2.0 ** self.log2_bound

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        return {
            "bound": self.bound,
            "log2_bound": self.log2_bound,
            "weights": {
                "".join(sorted(scheme)): round(weight, 6)
                for scheme, weight in self.weights.items()
            },
        }

    def __repr__(self) -> str:
        return f"<FractionalEdgeCover bound={self.bound:.6g}>"


def fractional_edge_cover(
    schemes: Sequence[AttributeSet],
    sizes: Sequence[int],
) -> FractionalEdgeCover:
    """The tightest AGM bound for a join of ``schemes`` with ``sizes``.

    Raises :class:`~repro.errors.ReproError` when some attribute lies in
    no scheme (no cover exists) or the inputs disagree in length.  An
    empty relation makes the bound 0 (its weight can grow without cost).
    """
    schemes = [AttributeSet(s) for s in schemes]
    if len(schemes) != len(sizes):
        raise ReproError(
            f"got {len(schemes)} schemes but {len(sizes)} sizes"
        )
    if not schemes:
        raise ReproError("an edge cover needs at least one scheme")
    if any(size < 0 for size in sizes):
        raise ReproError("relation sizes must be nonnegative")
    attributes = sorted(set().union(*schemes))
    if any(size == 0 for size in sizes):
        # An empty relation covers everything for free: put weight on it
        # alone where possible; the join is empty and the bound is 0.
        weights = {
            scheme: (1.0 if size == 0 else 0.0)
            for scheme, size in zip(schemes, sizes)
        }
        return FractionalEdgeCover(float("-inf"), weights)
    costs = [log2(size) if size > 1 else 0.0 for size in sizes]
    objective, duals = _simplex_dual(schemes, attributes, costs)
    # Duplicate schemes (legal input, impossible from a Database) share
    # one key; summing keeps the cover feasible.
    weights: Dict[AttributeSet, float] = {}
    for scheme, dual in zip(schemes, duals):
        weights[scheme] = weights.get(scheme, 0.0) + dual
    return FractionalEdgeCover(objective, weights)


def _simplex_dual(
    schemes: Sequence[AttributeSet],
    attributes: Sequence[str],
    costs: Sequence[float],
) -> Tuple[float, List[float]]:
    """Maximize ``sum_v y_v`` s.t. ``sum_{v in e} y_v <= costs[e]``,
    ``y >= 0``; return the optimum and the dual values per edge (= the
    primal cover weights)."""
    n = len(attributes)
    m = len(schemes)
    col_of = {attr: j for j, attr in enumerate(attributes)}
    for attr in attributes:
        if not any(attr in scheme for scheme in schemes):  # pragma: no cover
            raise ReproError(f"attribute {attr!r} lies in no scheme")
    # Tableau: m rows x (n structural + m slack + 1 rhs) columns, plus
    # the objective row (reduced costs; maximization).
    width = n + m + 1
    rows: List[List[float]] = []
    for e, scheme in enumerate(schemes):
        row = [0.0] * width
        for attr in scheme:
            row[col_of[attr]] = 1.0
        row[n + e] = 1.0
        row[width - 1] = costs[e]
        rows.append(row)
    obj = [1.0] * n + [0.0] * m + [0.0]
    basis = [n + e for e in range(m)]  # the all-slack starting basis
    while True:
        # Bland's rule: the lowest-index column with positive reduced cost.
        entering = -1
        for j in range(n + m):
            if obj[j] > _EPS:
                entering = j
                break
        if entering < 0:
            break
        # Ratio test; ties by lowest basis index (Bland again).
        leaving = -1
        best_ratio = float("inf")
        for i in range(m):
            coeff = rows[i][entering]
            if coeff > _EPS:
                ratio = rows[i][width - 1] / coeff
                if ratio < best_ratio - _EPS or (
                    ratio < best_ratio + _EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:  # pragma: no cover - the primal is bounded
            raise ReproError("unbounded edge-cover dual")
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        for j in range(width):
            pivot_row[j] /= pivot
        for i in range(m):
            if i == leaving:
                continue
            factor = rows[i][entering]
            if factor:
                target = rows[i]
                for j in range(width):
                    target[j] -= factor * pivot_row[j]
        factor = obj[entering]
        if factor:
            for j in range(width):
                obj[j] -= factor * pivot_row[j]
        basis[leaving] = entering
    # obj[width-1] accumulated -z; the slack reduced costs are -x_e.
    objective = -obj[width - 1]
    duals = [max(0.0, -obj[n + e]) for e in range(m)]
    return objective, duals
