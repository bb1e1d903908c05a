"""The constructive content of the paper's proofs.

The paper's lemmas and theorems are proved by explicit strategy
surgeries; this module implements those surgeries as algorithms, so the
proofs themselves become executable and testable:

* :func:`theorem1_improvement` -- the Theorem 1 step: locate the *last*
  Cartesian-product step of a linear strategy and apply the proof's
  ``T1`` (pluck/graft) or ``T2`` (leaf exchange) move.  Under C1' the
  move strictly decreases tau -- which is exactly the theorem's
  contradiction: :func:`refute_linear_optimality` packages it as "give me
  a cheaper strategy than this CP-using linear one".  (The ``T1`` move
  may leave the linear subspace; the paper's proof only needs the cost
  drop, since tau-optimality is against *all* strategies.)
* :func:`lemma2_merge` / :func:`lemma3_merge` -- the component-merging
  moves of Lemmas 2 and 3 (Figures 4 and 5): pluck a component of an
  unconnected root child and graft it onto the other child.  Under C1
  (and C2 for Lemma 3) tau does not increase.
* :func:`normalize_components_individually` -- Lemma 4's induction: turn
  any strategy into one that evaluates its components individually
  without increasing tau (under C1 and C2).
* :func:`eliminate_cartesian_products` -- Theorem 2's induction: turn any
  strategy for a *connected* database into one using no Cartesian
  products, without increasing tau (under C1 and C2).
* :func:`linearize` -- Lemma 6's transfer argument: turn a CP-free
  strategy for a connected database into a *linear* CP-free strategy;
  under C3 tau does not increase.

Each function performs the move unconditionally (the surgery is defined
regardless of the conditions); the *guarantees* -- tau strictly
decreasing, non-increasing, etc. -- hold exactly when the paper's
hypotheses do, and the test suite asserts them on databases satisfying
those hypotheses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import StrategyError
from repro.strategy.transform import exchange_leaves, pluck_and_graft
from repro.strategy.tree import Strategy

__all__ = [
    "last_cartesian_product_step",
    "theorem1_improvement",
    "refute_linear_optimality",
    "lemma2_merge",
    "lemma3_merge",
    "normalize_components_individually",
    "eliminate_cartesian_products",
    "linearize",
]


def last_cartesian_product_step(strategy: Strategy) -> Optional[Strategy]:
    """The paper's "last step in S to use a Cartesian product": a CP step
    none of whose ancestors uses a Cartesian product.  ``None`` when the
    strategy is CP-free."""
    found: Optional[Strategy] = None

    def walk(node: Strategy, ancestors_clean: bool) -> None:
        nonlocal found
        if node.is_leaf:
            return
        is_cp = node.step_uses_cartesian_product()
        if is_cp and ancestors_clean and found is None:
            found = node
            # Children of a found step cannot be "last" (it is their
            # ancestor and uses a CP), so stop descending.
            return
        walk(node.left, ancestors_clean and not is_cp)
        walk(node.right, ancestors_clean and not is_cp)

    walk(strategy, True)
    return found


def _linear_cp_context(strategy: Strategy) -> Optional[Tuple[Strategy, Strategy, Strategy, Strategy]]:
    """For a linear strategy: the last CP step ``s``, its non-leaf child
    ``[E]``, its leaf child ``[R']``, and the leaf ``[R'']`` joined by
    ``s``'s parent.  ``None`` when no such configuration exists."""
    s = last_cartesian_product_step(strategy)
    if s is None:
        return None
    if s is strategy:
        # The root of a connected database never uses a CP; for
        # unconnected databases Theorem 1 does not apply.
        return None
    # Locate s's parent (linear => parent joins s with a single leaf).
    parent = next(
        (
            node
            for node in strategy.steps()
            if not node.is_leaf and (node.left is s or node.right is s)
        ),
        None,
    )
    if parent is None:
        return None
    sibling = parent.right if parent.left is s else parent.left
    if not sibling.is_leaf:
        return None  # not linear at this step
    left, right = s.left, s.right
    if left.is_leaf and not right.is_leaf:
        e_node, r_prime = right, left
    elif right.is_leaf and not left.is_leaf:
        e_node, r_prime = left, right
    elif left.is_leaf and right.is_leaf:
        # Both children are leaves (the bottom step): either can play R'.
        e_node, r_prime = left, right
    else:
        return None  # not linear at this step
    return s, e_node, r_prime, sibling


def theorem1_improvement(strategy: Strategy) -> Optional[Strategy]:
    """One step of the Theorem 1 proof on a linear strategy.

    Finds the last Cartesian-product step ``s = [E] ⋈ [R']`` with parent
    ``s ⋈ [R'']`` and applies:

    * Case 1 (``R'`` linked to ``R''``): pluck the ``R'`` leaf and graft
      it above the ``R''`` leaf (the ``T1`` transformation);
    * Case 2 (``E`` linked to ``R''``): exchange the leaves ``R'`` and
      ``R''`` (the ``T2`` transformation).

    Returns the transformed strategy, or ``None`` when the strategy has
    no Cartesian-product step to treat.  Under the theorem's hypotheses
    (D connected, ``R_D`` nonempty, C1') the result is strictly cheaper.
    """
    context = _linear_cp_context(strategy)
    if context is None:
        return None
    _, e_node, r_prime, r_second = context
    # Case 2 (exchange) preserves linearity, so prefer it when it applies.
    if e_node.scheme_set.is_linked_to(r_second.scheme_set):
        (rp,) = r_prime.scheme_set.schemes
        (rs,) = r_second.scheme_set.schemes
        return exchange_leaves(strategy, [rp], [rs])
    if r_prime.scheme_set.is_linked_to(r_second.scheme_set):
        return pluck_and_graft(strategy, r_prime.scheme_set, r_second.scheme_set)
    # By the proof, one of the two cases always applies when the parent
    # step is not itself a Cartesian product; reaching here means the
    # parent was a CP too, contradicting "last".
    raise StrategyError(
        "no applicable Theorem 1 case: the parent step also uses a "
        "Cartesian product"
    )


def refute_linear_optimality(strategy: Strategy) -> Strategy:
    """Theorem 1, packaged: given a *linear* strategy that uses a
    Cartesian product, produce the proof's alternative strategy.

    Under the theorem's hypotheses (D connected, ``R_D`` nonempty, C1')
    the returned strategy is strictly cheaper, witnessing that the input
    was not tau-optimum.  Raises :class:`~repro.errors.StrategyError`
    when the input is not linear or has no Cartesian-product step.
    """
    if not strategy.is_linear():
        raise StrategyError("Theorem 1 is about linear strategies")
    improved = theorem1_improvement(strategy)
    if improved is None:
        raise StrategyError(
            "the strategy uses no Cartesian product; Theorem 1 has nothing "
            "to refute"
        )
    return improved


def _root_children(strategy: Strategy) -> Tuple[Strategy, Strategy]:
    if strategy.is_leaf:
        raise StrategyError("a trivial strategy has no root step")
    return strategy.left, strategy.right


def lemma2_merge(strategy: Strategy) -> Strategy:
    """The Lemma 2 move (Figure 4).

    Requires the root children to be ``[D1]`` connected and ``[D2]``
    unconnected with ``D1`` linked to ``D2``, the ``D2`` substrategy
    evaluating its components individually.  Plucks a component ``E`` of
    ``D2`` linked to ``D1`` and grafts it above ``S_D1``; the new root
    children have strictly fewer components between them.  Under C1 (with
    ``R_D`` nonempty), tau does not increase.
    """
    left, right = _root_children(strategy)
    if left.scheme_set.is_connected() and not right.scheme_set.is_connected():
        connected_side, unconnected_side = left, right
    elif right.scheme_set.is_connected() and not left.scheme_set.is_connected():
        connected_side, unconnected_side = right, left
    else:
        raise StrategyError(
            "Lemma 2 needs one connected and one unconnected root child"
        )
    target = next(
        (
            component
            for component in unconnected_side.scheme_set.components()
            if component.is_linked_to(connected_side.scheme_set)
        ),
        None,
    )
    if target is None:
        raise StrategyError("Lemma 2 needs the root children to be linked")
    if unconnected_side.find(target) is None:
        raise StrategyError(
            "Lemma 2 needs the unconnected side to evaluate its components "
            f"individually (component {target} is not a node)"
        )
    return pluck_and_graft(strategy, target, connected_side.scheme_set)


def lemma3_merge(strategy: Strategy) -> Strategy:
    """The Lemma 3 move (Figure 5).

    Requires both root children unconnected and linked, each evaluating
    its components individually.  Picks linked components ``E1 ⊆ D1`` and
    ``E2 ⊆ D2`` and moves ``S_E2`` above ``S_E1``.  Under C1 and C2 (with
    ``R_D`` nonempty), tau does not increase, and the root children lose
    a component between them.
    """
    left, right = _root_children(strategy)
    if left.scheme_set.is_connected() or right.scheme_set.is_connected():
        raise StrategyError("Lemma 3 needs both root children unconnected")
    pair = None
    for e1 in left.scheme_set.components():
        for e2 in right.scheme_set.components():
            if e1.is_linked_to(e2):
                pair = (e1, e2)
                break
        if pair:
            break
    if pair is None:
        raise StrategyError("Lemma 3 needs the root children to be linked")
    e1, e2 = pair
    if left.find(e1) is None or right.find(e2) is None:
        raise StrategyError(
            "Lemma 3 needs both sides to evaluate their components individually"
        )
    # The paper moves the component whose join shrinks (by C2 one of the
    # two directions works); try E2 -> above E1 first, mirroring (1).
    return pluck_and_graft(strategy, e2, e1)


def normalize_components_individually(strategy: Strategy) -> Strategy:
    """Lemma 4, constructively: rebuild the strategy (bottom-up) so that
    every component of every node is evaluated individually.

    Repeatedly applies :func:`lemma2_merge` / :func:`lemma3_merge` at the
    root after recursively normalizing the children.  Under C1 and C2
    (with ``R_D`` nonempty) the result's tau is no larger than the
    original's.
    """
    if strategy.is_leaf:
        return strategy
    current = Strategy.join(
        normalize_components_individually(strategy.left),
        normalize_components_individually(strategy.right),
    )
    # Invariant of the loop: both children evaluate their own components
    # individually.  Three terminal cases (mirroring the Lemma 4 proof):
    # children not linked -> every component of the whole lies within one
    # (normalized) child; both children connected -> the whole is
    # connected and the root is its only component; otherwise a Lemma 2
    # or Lemma 3 merge strictly reduces comp(D1) + comp(D2).
    guard = len(strategy.scheme_set) + 1
    while guard > 0:
        guard -= 1
        left, right = current.left, current.right
        if not left.scheme_set.is_linked_to(right.scheme_set):
            return current
        left_connected = left.scheme_set.is_connected()
        right_connected = right.scheme_set.is_connected()
        if left_connected and right_connected:
            return current
        if left_connected != right_connected:
            moved = lemma2_merge(current)
        else:
            moved = lemma3_merge(current)
        current = Strategy.join(
            normalize_components_individually(moved.left),
            normalize_components_individually(moved.right),
        )
    raise StrategyError("component normalization did not converge")


def eliminate_cartesian_products(strategy: Strategy) -> Strategy:
    """Theorem 2, constructively: for a *connected* database scheme,
    transform a strategy into one using no Cartesian products.

    Follows the proof's induction: normalize children, then repeatedly
    merge components across the root (Lemmas 2-4) until both root
    children are connected, and recurse.  Under C1 and C2 (with ``R_D``
    nonempty) tau never increases, so applying this to a tau-optimum
    strategy yields a CP-free tau-optimum strategy.
    """
    if not strategy.scheme_set.is_connected():
        raise StrategyError(
            "Theorem 2's construction applies to connected database schemes"
        )
    if strategy.is_leaf:
        return strategy

    current = strategy
    guard = len(strategy.scheme_set) * 4
    while guard > 0:
        guard -= 1
        left, right = current.left, current.right
        left_connected = left.scheme_set.is_connected()
        right_connected = right.scheme_set.is_connected()
        if left_connected and right_connected:
            return Strategy.join(
                eliminate_cartesian_products(left),
                eliminate_cartesian_products(right),
            )
        current = Strategy.join(
            normalize_components_individually(left),
            normalize_components_individually(right),
        )
        if left_connected != right_connected:
            current = lemma2_merge(current)
        else:
            current = lemma3_merge(current)
    raise StrategyError("Cartesian-product elimination did not converge")


def linearize(strategy: Strategy) -> Strategy:
    """Lemma 6, constructively: transform a CP-free strategy for a
    connected database into a *linear* CP-free strategy.

    At each root with two non-trivial children, finds children
    ``D1' ⊆ D1`` and ``D2' ⊆ D2`` that are linked and transfers ``S_D2'``
    above ``S_D1`` (the proof's ``T2`` alternative), shrinking the second
    child; when one child is trivial, recurses into the other.  Under C3
    the transfers preserve tau-optimality among connected strategies.
    """
    if strategy.uses_cartesian_products():
        raise StrategyError("Lemma 6's construction applies to CP-free strategies")
    if strategy.is_leaf:
        return strategy
    current = strategy
    guard = len(strategy.scheme_set) * 4
    while guard > 0:
        guard -= 1
        left, right = current.left, current.right
        if left.is_leaf:
            return Strategy.join(linearize(right), left)
        if right.is_leaf:
            return Strategy.join(linearize(left), right)
        # Find a child of one side linked to the other side's whole
        # scheme, preferring to move a piece of the right side onto the
        # left (the proof's "transfer in one direction").
        moved = None
        for candidate in (right.left, right.right):
            if candidate.scheme_set.is_linked_to(left.scheme_set):
                moved = pluck_and_graft(
                    current, candidate.scheme_set, left.scheme_set
                )
                break
        if moved is None:
            for candidate in (left.left, left.right):
                if candidate.scheme_set.is_linked_to(right.scheme_set):
                    moved = pluck_and_graft(
                        current, candidate.scheme_set, right.scheme_set
                    )
                    break
        if moved is None:
            raise StrategyError(
                "no linked transfer available; is the database scheme connected?"
            )
        current = moved
    raise StrategyError("linearization did not converge")
