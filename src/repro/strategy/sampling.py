"""Uniform random sampling of strategies.

At the scales the paper's introduction motivates (dozens to hundreds of
joins) the strategy space cannot be enumerated; sampling is how one
studies it.  The leaf-insertion process -- start with two leaves, then
insert each next leaf by subdividing an edge of the current tree chosen
uniformly at random (counting the root's stem as an edge) -- generates
every unordered binary tree over ``n`` labeled leaves with probability
``1/(2n-3)!!``, i.e. uniformly.  Tests verify the uniformity empirically
on the 15 four-relation trees.

Also provides uniform linear-strategy sampling (a random permutation) and
a cost-distribution summary used by the search-space-density experiment.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.database import Database
from repro.errors import StrategyError
from repro.strategy.cost import tau_cost
from repro.strategy.tree import Strategy

__all__ = [
    "sample_strategy",
    "sample_linear_strategy",
    "cost_distribution",
]


class _Node:
    """Mutable binary-tree node used only during sampling."""

    __slots__ = ("scheme", "left", "right")

    def __init__(self, scheme=None, left=None, right=None):
        self.scheme = scheme
        self.left = left
        self.right = right

    def edges(self) -> List[Tuple["_Node", str]]:
        """All (parent, side) slots below this node, plus implicit self."""
        found: List[Tuple[_Node, str]] = []

        def walk(node: "_Node") -> None:
            for side in ("left", "right"):
                child = getattr(node, side)
                if child is not None:
                    found.append((node, side))
                    walk(child)

        walk(self)
        return found


def sample_strategy(db: Database, rng: random.Random, subset=None) -> Strategy:
    """A uniformly random strategy for the database (or scheme subset).

    Uniform over the ``(2n-3)!!`` unordered binary trees with the given
    leaves.
    """
    if subset is None:
        schemes = list(db.scheme.sorted_schemes())
    else:
        schemes = list(db.scheme.restrict(subset).sorted_schemes())
    if not schemes:
        raise StrategyError("cannot sample a strategy over no relations")
    order = schemes[:]
    rng.shuffle(order)
    root = _Node(scheme=order[0])
    for scheme in order[1:]:
        # Candidate insertion points: every existing edge plus the stem
        # above the root (2k-3 + 1 = 2k-2 slots for a k-leaf tree, which
        # yields the (2n-3)!! count).
        slots = root.edges()
        choice = rng.randrange(len(slots) + 1)
        new_leaf = _Node(scheme=scheme)
        if choice == len(slots):
            root = _Node(left=root, right=new_leaf)
        else:
            parent, side = slots[choice]
            old_child = getattr(parent, side)
            setattr(parent, side, _Node(left=old_child, right=new_leaf))

    def to_strategy(node: _Node) -> Strategy:
        if node.scheme is not None:
            return Strategy.leaf(db, node.scheme)
        return Strategy.join(to_strategy(node.left), to_strategy(node.right))

    return to_strategy(root)


def sample_linear_strategy(db: Database, rng: random.Random) -> Strategy:
    """A uniformly random *linear* strategy (a random join order)."""
    schemes = list(db.scheme.sorted_schemes())
    rng.shuffle(schemes)
    node = Strategy.leaf(db, schemes[0])
    for scheme in schemes[1:]:
        node = Strategy.join(node, Strategy.leaf(db, scheme))
    return node


def cost_distribution(
    db: Database,
    rng: random.Random,
    samples: int = 200,
    sampler: Optional[Callable[[Database, random.Random], Strategy]] = None,
) -> dict:
    """Summary statistics of tau over sampled strategies.

    Returns min/median/max and the fraction of samples within 2x of the
    sampled minimum -- a density picture of the search space.
    """
    chosen = sampler if sampler is not None else sample_strategy
    costs = sorted(tau_cost(chosen(db, rng)) for _ in range(samples))
    minimum = costs[0]
    threshold = 2 * minimum
    within = sum(1 for c in costs if c <= threshold)
    return {
        "samples": samples,
        "min": minimum,
        "median": costs[len(costs) // 2],
        "max": costs[-1],
        "within_2x_of_min": within / samples,
    }
