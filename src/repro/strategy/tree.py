"""Strategy trees (paper, Section 2, rules S1-S4).

A strategy ``S`` for a database ``𝒟 = (D, D)`` is a rooted binary tree in
which every node is a pair ``[D', R_D']`` with ``D' ⊆ D``, the root
carries ``D`` itself, internal nodes ("steps") join the disjoint schemes
of their two children, and leaves carry single relations.

Implementation note: a node stores the *database* and its *subset of
relation schemes*; the relation state ``R_D'`` is derived on demand via
the database's memoized subset-join cache.  This makes the proof
surgeries (pluck/graft) pure tree rebuilds -- the states of all affected
ancestors recompute automatically -- and lets thousands of enumerated
strategies share the cost of every distinct intermediate join.

Children are unordered (the natural join commutes), and equality/hashing
respect that.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.database import Database
from repro.errors import StrategyError
from repro.relational.attributes import AttributeSet, attrs, format_attrs
from repro.relational.relation import Relation
from repro.schemegraph.scheme import DatabaseScheme

__all__ = ["Strategy", "parse_strategy", "run", "SpecLike"]

#: Nested-pair strategy specs accepted by :meth:`Strategy.from_spec`:
#: a leaf is a relation name or scheme string, an internal node is a
#: 2-sequence of specs.
SpecLike = Union[str, AttributeSet, Sequence]


class Strategy:
    """A strategy (sub)tree over a database.

    A :class:`Strategy` whose :attr:`scheme_set` equals the database's full
    scheme is a strategy *for* the database; any node of it is itself a
    strategy for the corresponding sub-database (the paper's
    *substrategy*).
    """

    __slots__ = ("_db", "_schemes", "_left", "_right", "_key")

    def __init__(
        self,
        db: Database,
        left: Optional["Strategy"] = None,
        right: Optional["Strategy"] = None,
        _leaf_scheme: Optional[AttributeSet] = None,
    ):
        self._db = db
        if (left is None) != (right is None):
            raise StrategyError("a step needs exactly two children")
        if left is None:
            # Leaf node.
            if _leaf_scheme is None:
                raise StrategyError("a leaf must name its relation scheme")
            if _leaf_scheme not in db.scheme:
                raise StrategyError(
                    f"{format_attrs(_leaf_scheme)} is not a relation scheme of "
                    "the database"
                )
            self._schemes = DatabaseScheme(frozenset((_leaf_scheme,)))
            self._left = None
            self._right = None
            # The structure key: a leaf's scheme, a step's children's keys
            # as an unordered pair.
            self._key = _leaf_scheme
        else:
            if left._db is not db or right._db is not db:
                raise StrategyError(
                    "both children must be strategies over the same database"
                )
            if not left._schemes.is_disjoint_from(right._schemes):
                raise StrategyError(
                    f"children {left._schemes} and {right._schemes} are not "
                    "disjoint (rule S3)"
                )
            self._schemes = left._schemes.union(right._schemes)
            self._left = left
            self._right = right
            self._key = frozenset((left._key, right._key))

    # -- constructors --------------------------------------------------------------

    @classmethod
    def leaf(cls, db: Database, scheme) -> "Strategy":
        """The trivial strategy ``[{R}, R]`` for one relation."""
        return cls(db, _leaf_scheme=attrs(scheme))

    @classmethod
    def join(cls, left: "Strategy", right: "Strategy") -> "Strategy":
        """The strategy whose root joins the two given strategies."""
        return cls(left._db, left, right)

    @classmethod
    def from_spec(cls, db: Database, spec: SpecLike) -> "Strategy":
        """Build a strategy from nested pairs of relation identifiers.

        A leaf identifier is a relation display name (``"R1"``) or a
        scheme spec accepted by :func:`repro.relational.attributes.attrs`
        (``"AB"``); an internal node is any 2-element sequence::

            Strategy.from_spec(db, (("R1", "R2"), "R3"))
        """
        if isinstance(spec, (str, AttributeSet)):
            return cls.leaf(db, _resolve_scheme(db, spec))
        branches = tuple(spec)
        if len(branches) != 2:
            raise StrategyError(
                f"strategy spec nodes must have exactly 2 branches, got {spec!r}"
            )
        return cls.join(
            cls.from_spec(db, branches[0]), cls.from_spec(db, branches[1])
        )

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return self._db is other._db and self._key == other._key

    def __hash__(self) -> int:
        return hash((id(self._db), self._key))

    # -- node accessors ----------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The database this strategy evaluates (a subset of it)."""
        return self._db

    @property
    def scheme_set(self) -> DatabaseScheme:
        """``D'``: the relation schemes this node joins."""
        return self._schemes

    @property
    def state(self) -> Relation:
        """``R_D'``: the relation state this node produces (memoized)."""
        return self._db.join_of(self._schemes)

    @property
    def tau(self) -> int:
        """``tau(R_D')`` of this node's state.

        Routed through :meth:`Database.tau_of`, which counts the subset
        join without materializing it whenever the subset's shape allows
        (docs/performance.md) -- costing a strategy never forces the
        intermediate states into existence.
        """
        return self._db.tau_of(self._schemes)

    @property
    def is_leaf(self) -> bool:
        """True for a leaf ``[{R}, R]``."""
        return self._left is None

    #: The paper calls the single-node strategy *trivial*.
    is_trivial = is_leaf

    @property
    def left(self) -> Optional["Strategy"]:
        """One child of a step (``None`` on leaves)."""
        return self._left

    @property
    def right(self) -> Optional["Strategy"]:
        """The other child of a step (``None`` on leaves)."""
        return self._right

    def children(self) -> Tuple["Strategy", ...]:
        """Both children (empty on leaves)."""
        if self._left is None:
            return ()
        return (self._left, self._right)

    # -- traversal ------------------------------------------------------------------------

    def nodes(self) -> Iterator["Strategy"]:
        """All nodes, post-order (children before parents)."""
        if self._left is not None:
            yield from self._left.nodes()
            yield from self._right.nodes()
        yield self

    def steps(self) -> Iterator["Strategy"]:
        """The internal nodes (the paper's *steps*), post-order."""
        return (node for node in self.nodes() if not node.is_leaf)

    def leaves(self) -> Iterator["Strategy"]:
        """The leaf nodes."""
        return (node for node in self.nodes() if node.is_leaf)

    def find(self, schemes) -> Optional["Strategy"]:
        """The node whose scheme set equals ``schemes``, or ``None``."""
        target = schemes if isinstance(schemes, DatabaseScheme) else DatabaseScheme(
            attrs(s) for s in schemes
        )
        for node in self.nodes():
            if node._schemes == target:
                return node
        return None

    def step_count(self) -> int:
        """``|D'| - 1``: the number of steps."""
        return len(self._schemes) - 1

    # -- the paper's predicates ------------------------------------------------------------

    def is_linear(self) -> bool:
        """True when every step has a trivial strategy (a leaf) as a child."""
        return all(
            step._left.is_leaf or step._right.is_leaf for step in self.steps()
        )

    def step_uses_cartesian_product(self) -> bool:
        """True when *this* step's children are not linked (leaf: False)."""
        if self._left is None:
            return False
        return not self._left._schemes.is_linked_to(self._right._schemes)

    def uses_cartesian_products(self) -> bool:
        """True when some step of the strategy uses a Cartesian product."""
        return any(step.step_uses_cartesian_product() for step in self.steps())

    def cartesian_product_steps(self) -> List["Strategy"]:
        """The steps that use Cartesian products."""
        return [s for s in self.steps() if s.step_uses_cartesian_product()]

    def evaluates_components_individually(self) -> bool:
        """True when every component ``E`` of ``D'`` appears as a node
        ``[E, R_E]`` of the strategy.

        (Single-relation components appear as leaves; the paper's own
        example -- ``(ABC ⋈ BE) ⋈ DF`` evaluates the components of
        ``{ABC, BE, DF}`` individually -- shows leaves count.)
        """
        node_schemes = {node._schemes for node in self.nodes()}
        return all(
            component in node_schemes
            for component in self._schemes.components()
        )

    def avoids_cartesian_products(self) -> bool:
        """The paper's *avoids Cartesian products*: the components are
        evaluated individually and exactly ``comp(D') - 1`` steps use
        Cartesian products (the unavoidable minimum)."""
        if not self.evaluates_components_individually():
            return False
        unavoidable = self._schemes.component_count() - 1
        return len(self.cartesian_product_steps()) == unavoidable

    def is_connected_strategy(self) -> bool:
        """Lemma 6's shorthand: the strategy uses no Cartesian products."""
        return not self.uses_cartesian_products()

    def is_monotone_decreasing(self) -> bool:
        """Every step's output is no larger than either input (Section 5)."""
        return all(
            step.tau <= step._left.tau and step.tau <= step._right.tau
            for step in self.steps()
        )

    def is_monotone_increasing(self) -> bool:
        """Every step's output is no smaller than either input (Section 5)."""
        return all(
            step.tau >= step._left.tau and step.tau >= step._right.tau
            for step in self.steps()
        )

    # -- presentation ------------------------------------------------------------------------

    def describe(self) -> str:
        """Parenthesized rendering using relation display names."""
        if self._left is None:
            (scheme,) = self._schemes.schemes
            return self._db.name_of(scheme)
        # Render the children in deterministic order for stable output.
        parts = sorted(
            (child.describe() for child in self.children()),
        )
        return "(" + " ⋈ ".join(parts) + ")"

    def __repr__(self) -> str:
        return f"<Strategy {self.describe()}>"


def run(node: Strategy, kernels=None, memo=Database._join_memo) -> Relation:
    """The state of ``node`` as the strategy builds it: a leaf's base
    state; a step whose subset ``kernels`` maps to a kernel name from
    that kernel (:meth:`Database.run_kernel`); any other step the join
    of its children's states.  Steps go through the join memo, so a
    memoized subset is reused and a computed one is memoized.  Every
    step is one call ``memo(db, subset, compute)``; the profiler
    (:meth:`repro.obs.profile.RunReport.capture`) passes a ``memo`` that
    times each one.  :meth:`repro.query.Plan.execute` runs a plan this
    way, and the subset DP a cyclic component's plan."""
    db = node.database
    if node.is_leaf:
        (scheme,) = node.scheme_set.schemes
        return db.state_for(scheme)
    key = node.scheme_set.schemes
    kernel = kernels.get(key) if kernels else None
    if kernel is not None:
        return memo(db, key, partial(db.run_kernel, kernel, key))
    return memo(
        db,
        key,
        lambda: run(node.left, kernels, memo).join(run(node.right, kernels, memo)),
    )


def _resolve_scheme(db: Database, token: Union[str, AttributeSet]) -> AttributeSet:
    """Map a leaf token to a relation scheme: display name first, then
    compact scheme spelling."""
    if isinstance(token, AttributeSet):
        if token in db.scheme:
            return token
        raise StrategyError(f"{format_attrs(token)} is not a scheme of the database")
    for rel in db.relations():
        if rel.name == token:
            return rel.scheme
    candidate = attrs(token)
    if candidate in db.scheme:
        return candidate
    raise StrategyError(
        f"{token!r} names neither a relation nor a relation scheme of the database"
    )


def parse_strategy(db: Database, text: str) -> Strategy:
    """Parse a parenthesized strategy string.

    Accepts the notation used throughout the paper and this library::

        parse_strategy(db, "((R1 R2) R3)")
        parse_strategy(db, "((AB ⋈ BC) ⋈ DE)")

    Join symbols (``⋈`` or ``*``) between siblings are optional.  Every
    internal node must have exactly two children.
    """
    tokens = (
        text.replace("(", " ( ").replace(")", " ) ").replace("⋈", " ").replace("*", " ")
    ).split()
    position = 0

    def parse_node() -> SpecLike:
        nonlocal position
        if position >= len(tokens):
            raise StrategyError(f"unexpected end of strategy string {text!r}")
        token = tokens[position]
        if token == "(":
            position += 1
            children = []
            while position < len(tokens) and tokens[position] != ")":
                children.append(parse_node())
            if position >= len(tokens):
                raise StrategyError(f"unbalanced parentheses in {text!r}")
            position += 1  # consume ")"
            if len(children) != 2:
                raise StrategyError(
                    f"strategy nodes must join exactly 2 operands, got "
                    f"{len(children)} in {text!r}"
                )
            return tuple(children)
        if token == ")":
            raise StrategyError(f"unbalanced parentheses in {text!r}")
        position += 1
        return token

    spec = parse_node()
    if position != len(tokens):
        raise StrategyError(f"trailing tokens in strategy string {text!r}")
    return Strategy.from_spec(db, spec)
