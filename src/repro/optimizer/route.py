"""Engine routing: which kernel executes each part of a query.

Two shapes defeat every binary join order: on **cyclic** schemes a
pairwise plan can pass through a Θ(N²) intermediate while the output is
O(N^1.5) (the AGM bound; Generic Join runs within it), and on
**acyclic** schemes with selective interaction pairwise joins can be
Θ(N²) while the output is tiny (the Yannakakis reducer bounds every
intermediate by input + output).  :class:`EngineRouter` makes every
engine decision: :meth:`~EngineRouter.route` pins an unpinned database
to the multiway engine its components want (the ``engine:`` line),
:meth:`~EngineRouter.decide_cyclic` picks the executor that builds each
cyclic component of a routed database while the subset DP asks for its
tau, and :meth:`~EngineRouter.execution` reports per plan whether a
kernel replaces a component's plan subtree (the ``execute:`` lines).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.database import Database
from repro.relational.attributes import AttributeSet, format_attrs
from repro.schemegraph.jointree import JoinTree
from repro.strategy.cost import tau_cost
from repro.wcoj.agm import FractionalEdgeCover, fractional_edge_cover
from repro.wcoj.order import choose_order

if TYPE_CHECKING:
    from repro.strategy.tree import Strategy

__all__ = [
    "AGM_SHARE",
    "ComponentExecution",
    "CyclicDecision",
    "EngineRouter",
    "EngineRouting",
    "RHO_STAR",
]

#: The :attr:`ComponentExecution.rho` at and above which the Yannakakis
#: kernel replaces a routed acyclic component's plan subtree.  On the e2e
#: pools the executed plan won up to rho 1.17 (tree6) and the kernel tied
#: or won from 1.23 (star4) up (docs/performance.md).
RHO_STAR = 1.2

#: Generic Join builds a routed cyclic component iff its plan's non-root
#: steps produce at least min(U, AGM_SHARE * AGM) tuples
#: (:class:`CyclicDecision`).  Any share from 0.25 to 0.50 gives the same
#: total on the 113-database calibration corpus of docs/performance.md.
AGM_SHARE = 0.45

#: The bound a :class:`CyclicDecision` compared ``I`` with, without and
#: with ``U``, as the ``execute:`` line spells it.
_BOUNDS = (f"{AGM_SHARE} AGM", f"min(U, {AGM_SHARE} AGM)")


class CyclicDecision(NamedTuple):
    """Which executor built a routed cyclic component ``C``, decided
    before anything materialized ``R_C``: ``"wcoj"`` (Generic Join) iff
    ``inner >= min(upper, AGM_SHARE * agm)``, else ``"plan"`` (the DP's
    plan for ``C``, run binary).

    ``inner`` is I = τ(S*_C) − τ(R_C), what the plan's non-root steps
    produce; ``upper`` is U, the least τ(C∖{R}) over the relations ``R``
    whose attributes the rest of ``C`` also holds, an upper bound on
    τ(R_C) (``None`` when no relation qualifies); ``agm`` is ``C``'s AGM
    bound.  Generic Join's work is bounded by the output's worst case,
    so it can only win where the plan's intermediates outgrow a bound on
    the output."""

    engine: str
    inner: int
    upper: Optional[int]
    agm: float

    @property
    def reason(self) -> str:
        """The rule as it came out, for the ``execute:`` line."""
        sign = "I >= " if self.engine == "wcoj" else "I < "
        return sign + _BOUNDS[self.upper is not None]


_VERDICTS = {  # an unpinned database's engine and reason, by the kernels wanted
    frozenset(): ("vector", "no connected subset of three or more relations"),
    frozenset({"wcoj"}): ("wcoj", "generic join runs within the AGM bound"),
    frozenset({"yannakakis"}): (
        "yannakakis", "semijoin reduction bounds intermediates by the output"),
    frozenset({"wcoj", "yannakakis"}): ("yannakakis", "mixed components: semijoin"
        " reduction on acyclic subsets, generic join on cyclic ones"),
}


class EngineRouting(NamedTuple):
    """Why a query's database carries the engine it carries:
    ``requested`` (its pin, or ``"vector"``) and ``effective`` (the
    router's pin) engines, the scheme-shape facts, a one-line ``reason``,
    the AGM ``cover`` of a connected scheme, the per-component verdicts
    ``(relations, cyclic, engine)``, and the join ``tree`` or Generic-Join
    ``expansion`` order of a connected scheme routed to that kernel.
    """

    requested: str
    effective: str
    cyclic: bool
    connected: bool
    reason: str
    cover: Optional[FractionalEdgeCover] = None
    components: Tuple[Tuple[int, bool, str], ...] = ()
    tree: Optional[JoinTree] = None
    expansion: Optional[Tuple[str, ...]] = None

    @property
    def routed(self) -> bool:
        """True when the router changed the engine."""
        return self.effective != self.requested

    def describe(self) -> str:
        """The ``engine:`` explain line."""
        shape = "cyclic" if self.cyclic else "acyclic"
        if self.routed:
            shape = f"requested {self.requested}; scheme {shape} ->"
            return f"engine: {self.effective} ({shape} {self.reason})"
        return f"engine: {self.effective} (scheme {shape}; {self.reason})"

    def structure_lines(self) -> List[str]:
        """Explain lines for the multiway structure: the join tree
        (root first, children indented) or the expansion order."""
        if self.tree is not None:
            order = self.tree.rooted_at(self.tree.scheme.subset_index().schemes[0])
            depths: Dict[Any, int] = {}
            lines = ["join tree:"]
            for node, parent in order:
                depths[node] = 0 if parent is None else depths[parent] + 1
                lines.append("  " * (depths[node] + 1) + format_attrs(node))
            return lines
        if self.expansion is not None:
            return ["expansion order: " + " -> ".join(self.expansion)]
        return []

    def structure_summary(self) -> Optional[Tuple[str, str]]:
        """The multiway structure as one ``(key, value)`` pair for the
        profile summary, or ``None`` when the routing is binary-only."""
        if self.tree is not None:
            pairs = (f"{format_attrs(a)}-{format_attrs(b)}" for a, b in self.tree.edges)
            return ("join tree", ", ".join(sorted(pairs)))
        if self.expansion is not None:
            return ("expansion order", " -> ".join(self.expansion))
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        out = self._asdict()
        cover, tree = out.pop("cover"), self.tree
        out.update(
            routed=self.routed,
            agm=None if cover is None else cover.to_dict(),
            components=[
                {"relations": size, "cyclic": cyc, "engine": engine}
                for size, cyc, engine in self.components
            ],
            tree=None if tree is None else sorted(
                sorted([list(a.sorted()), list(b.sorted())]) for a, b in tree.edges
            ),
            expansion=None if self.expansion is None else list(self.expansion),
        )
        return out

    def __repr__(self) -> str:
        arrow = f"{self.requested}->{self.effective}" if self.routed else self.effective
        return f"<EngineRouting {arrow} cyclic={self.cyclic}>"


class ComponentExecution(NamedTuple):
    """How ``Plan.execute`` runs one component ``C`` of >= 3 relations:
    on the kernel ``engine`` names, or its plan subtree (``"plan"``).
    ``rho = plan_tau / (inputs + output)``: τ(S*_C), the cost of the
    strategy's subtree for ``C``, over Σ_{R∈C}|R| + τ(R_C), what the
    reducer at least reads and emits.  The four are ``None`` when no
    kernel could run ``C``: it is not a node of the strategy, or the
    database's engine has no kernel for its shape.  ``inner``, ``upper``
    and ``agm`` are the terms of the :class:`CyclicDecision` that built
    a routed cyclic ``C`` (``None`` otherwise)."""

    subset: FrozenSet[AttributeSet]
    relations: Tuple[str, ...]
    cyclic: bool
    engine: str
    reason: str
    rho: Optional[float]
    plan_tau: Optional[int]
    inputs: int
    output: int
    inner: Optional[int] = None
    upper: Optional[int] = None
    agm: Optional[float] = None

    def describe(self) -> str:
        """The ``execute:`` explain line."""
        head = f"execute: {{{', '.join(self.relations)}}} -> {self.engine}"
        if self.rho is None:
            return f"{head} ({self.reason})"
        terms = ""
        if self.agm is not None:
            upper = "-" if self.upper is None else self.upper
            terms = f"I {self.inner}, U {upper}, AGM {self.agm:.6g}; "
        return (
            f"{head} ({self.reason}; {terms}rho {self.rho:.3g} = tau(S*) "
            f"{self.plan_tau} / (sum|R| {self.inputs} + tau(R_C) {self.output}))"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        return {k: v for k, v in self._asdict().items() if k != "subset"}


class EngineRouter:
    """Classify a database's components (from its scheme's
    :class:`~repro.schemegraph.index.SubsetIndex`), pin its engine, and
    decide how each component of a plan executes.

    :meth:`route` keeps a pinned database's pin.  Otherwise a cyclic
    component of >= 3 relations wants ``wcoj`` and an acyclic one
    ``yannakakis``; a database with both goes to ``yannakakis``, which
    runs both kernels, and one with neither stays on ``vector``.
    """

    def __init__(self, db: Database):
        self._db = db

    @staticmethod
    def _wants(size: int, cyclic: bool) -> str:
        if size < 3:
            return "vector"
        return "wcoj" if cyclic else "yannakakis"

    def route(self) -> EngineRouting:
        """Decide the execution engine for the database and say why."""
        db = self._db
        index = db.scheme.subset_index()
        parts = [
            (index.members(m), index.join_tree(m)) for m in index.components(index.full)
        ]
        cyclic = any(tree is None for _, tree in parts)
        connected = len(parts) == 1
        components = tuple(
            (len(m), t is None, self._wants(len(m), t is None)) for m, t in parts
        )
        effective, reason = _VERDICTS[frozenset(e for _, _, e in components) - {"vector"}]
        if db.pinned_engine is not None:
            effective, reason = db.pinned_engine, "pinned on the database"
        cover = tree = expansion = None
        if connected:
            relations = db.relations()
            schemes = [rel.scheme for rel in relations]
            cover = fractional_edge_cover(schemes, [len(rel) for rel in relations])
            (members, edges), = parts
            if effective == "yannakakis" and not cyclic:
                tree = JoinTree(db.scheme, [(members[i], members[j]) for i, j in edges])
            elif cyclic and effective != "vector":
                expansion = choose_order(schemes)
        return EngineRouting(db.engine, effective, cyclic, connected, reason,
                             cover, components, tree, expansion)

    @staticmethod
    def cyclic_components(db: Database) -> FrozenSet[int]:
        """The masks of the cyclic components of a database the router
        moved (:attr:`Database.routing`); empty for any other database.
        The subset DP routes each one on its plan's tau."""
        routing = db.routing
        if routing is None or not (routing.routed and routing.cyclic):
            return frozenset()
        index = db.scheme.subset_index()
        return frozenset(
            mask
            for mask, (_, cyclic, _) in zip(index.components(index.full), routing.components)
            if cyclic
        )

    @staticmethod
    def decide_cyclic(db: Database, mask: int, inner: int) -> CyclicDecision:
        """The executor for the routed cyclic component ``mask``
        (:meth:`cyclic_components`) whose plan's non-root steps produce
        ``inner`` tuples: the rule of :class:`CyclicDecision`.  U reads
        the taus of ``mask``'s proper subsets the DP already asked for,
        moving no cache counter; the AGM bound is the routing record's
        cover, or ``C``'s own when the scheme has other components."""
        index = db.scheme.subset_index()
        members = index.members(mask)
        seen: Set[str] = set()
        shared: Set[str] = set()  # the attributes two or more members hold
        for scheme in members:
            shared |= seen & scheme
            seen |= scheme
        upper = None
        for scheme in members:
            if scheme <= shared:
                tau = db.cached_tau(mask ^ index.bit_of[scheme])
                if upper is None or tau < upper:
                    upper = tau
        cover = db.routing.cover
        if mask != index.full:
            relations = [db.state_for(s) for s in members]
            cover = fractional_edge_cover(
                [rel.scheme for rel in relations], [len(rel) for rel in relations]
            )
        agm = cover.bound
        bound = AGM_SHARE * agm if upper is None else min(upper, AGM_SHARE * agm)
        return CyclicDecision("wcoj" if inner >= bound else "plan", inner, upper, agm)

    @staticmethod
    def execution(
        strategy: Strategy, cost: int, routing: Optional[EngineRouting]
    ) -> Tuple[ComponentExecution, ...]:
        """How ``Plan.execute`` runs each component of >= 3 relations of
        ``strategy``'s database (of tau ``cost``, planned under
        ``routing``), from taus costing it left in the caches.  A
        component runs the strategy's steps unless the database's engine
        has its kernel and it is a node of the strategy: if cyclic, the
        executor the recorded :class:`CyclicDecision` names when the DP
        routed it (:meth:`Database.decision`) and Generic Join
        otherwise; if acyclic, Yannakakis when pinned or ``rho`` >=
        :data:`RHO_STAR`."""
        db = strategy.database
        index = db.scheme.subset_index()
        parts = index.components(index.full)
        shapes = (  # the routing record holds each component's shape, in order
            [index.join_tree(m) is None for m in parts] if routing is None
            else [cyc for _, cyc, _ in routing.components])
        nodes: Dict[FrozenSet[AttributeSet], Strategy] = {}
        out = []
        for mask, cyclic in zip(parts, shapes):
            members = index.schemes if mask == index.full else index.members(mask)
            if len(members) < 3:
                continue
            subset, node = db.scheme.schemes, strategy
            if mask != index.full:
                subset = frozenset(members)
                nodes = nodes or {n.scheme_set.schemes: n for n in strategy.nodes()}
                node = nodes.get(subset)
            states = [db.state_for(s) for s in members]
            names = tuple(sorted(rel.name or format_attrs(rel.scheme) for rel in states))
            terms: Tuple[Any, ...] = (None,) * 4
            if db.engine not in ("yannakakis", "wcoj" if cyclic else "yannakakis"):
                engine, reason = "plan", f"{db.engine} engine"
            elif node is None:
                engine, reason = "plan", "not a node of the strategy"
            else:
                plan_tau = cost if node is strategy else tau_cost(node)
                inputs, output = sum(map(len, states)), db.tau_of_mask(mask)
                rho = plan_tau / max(inputs + output, 1)
                terms = (rho, plan_tau, inputs, output)
                decision = db.decision(mask) if cyclic else None
                if decision is not None:
                    engine, reason = decision.engine, decision.reason
                    terms += decision[1:]
                elif cyclic:
                    engine, reason = "wcoj", "cyclic"
                elif routing is None or not routing.routed:
                    engine, reason = "yannakakis", "pinned on the database"
                else:
                    engine = "yannakakis" if rho >= RHO_STAR else "plan"
                    reason = f"rho {'<' if engine == 'plan' else '>='} {RHO_STAR}"
            out.append(ComponentExecution(subset, names, cyclic, engine, reason, *terms))
        return tuple(out)

