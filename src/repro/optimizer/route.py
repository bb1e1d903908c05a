"""Engine routing: which kernel executes each part of a query.

Two shapes defeat every binary join order: on **cyclic** schemes a
pairwise plan can pass through a Θ(N²) intermediate while the output is
O(N^1.5) (the AGM bound; Generic Join runs within it), and on
**acyclic** schemes with selective interaction pairwise joins can be
Θ(N²) while the output is tiny (the Yannakakis reducer bounds every
intermediate by input + output).  :class:`EngineRouter` makes the one
engine decision there is: which executor runs each connected component
of three or more relations -- the strategy's own binary steps,
Yannakakis, or Generic Join.  On an unpinned database
:meth:`~EngineRouter.decide_cyclic` picks the executor that builds each
cyclic component while the subset DP asks for its tau, and
:meth:`~EngineRouter.execution` decides the acyclic ones from the plan's
tau (the ``execute:`` lines); a database's ``engine=`` pin overrides
both.  :meth:`~EngineRouter.route` describes the scheme for
``explain`` (the ``engine:`` line): it decides nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.database import Database
from repro.relational.attributes import AttributeSet, format_attrs
from repro.strategy.cost import tau_cost
from repro.wcoj.agm import FractionalEdgeCover
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
#: kernel replaces an unpinned acyclic component's plan subtree.  On the
#: e2e pools the executed plan won up to rho 1.17 (tree6) and the kernel
#: tied or won from 1.23 (star4) up (docs/performance.md).
RHO_STAR = 1.2

#: Generic Join builds an unpinned cyclic component iff its plan's
#: non-root steps produce at least min(U, AGM_SHARE * AGM) tuples
#: (:class:`CyclicDecision`).  Any share from 0.25 to 0.50 gives the same
#: total on the 113-database calibration corpus of docs/performance.md.
AGM_SHARE = 0.45

#: The bound a :class:`CyclicDecision` compared ``I`` with, without and
#: with ``U``, as the ``execute:`` line spells it.
_BOUNDS = (f"{AGM_SHARE} AGM", f"min(U, {AGM_SHARE} AGM)")


class CyclicDecision(NamedTuple):
    """Which executor built a cyclic component ``C`` of an unpinned
    database, decided before anything materialized ``R_C``: ``"wcoj"``
    (Generic Join) iff ``inner >= min(upper, AGM_SHARE * agm)``, else
    ``"plan"`` (the DP's plan for ``C``, run binary).

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


#: A tree listing for ``explain``: ``(scheme, parent)`` pairs from the
#: root (whose parent is ``None``), breadth-first.
Listing = Tuple[Tuple[AttributeSet, Optional[AttributeSet]], ...]


class EngineRouting(NamedTuple):
    """What ``explain`` says about a query's database: its ``engine``
    pin (``None`` when unpinned), the scheme-shape facts, the AGM
    ``cover`` of a connected scheme, each component's ``(relations,
    cyclic)``, and, for a connected scheme whose kernel can run, the
    subset index's join ``tree`` (acyclic) or Generic Join's
    ``expansion`` order (cyclic).
    """

    engine: Optional[str]
    cyclic: bool
    connected: bool
    components: Tuple[Tuple[int, bool], ...]
    cover: Optional[FractionalEdgeCover] = None
    tree: Optional[Listing] = None
    expansion: Optional[Tuple[str, ...]] = None

    @property
    def effective(self) -> str:
        """The pin, or for an unpinned database the pin whose kernels
        its components may run on: ``"yannakakis"`` (which has both)
        when a component of three or more relations is acyclic, else
        ``"wcoj"`` when one is cyclic, else ``"vector"``."""
        if self.engine is not None:
            return self.engine
        shapes = {cyclic for size, cyclic in self.components if size >= 3}
        return "yannakakis" if False in shapes else "wcoj" if shapes else "vector"

    @property
    def reason(self) -> str:
        """Who picks each component's executor, in a phrase."""
        if self.engine is not None:
            return "pinned on the database"
        if self.effective == "vector":
            return "no connected subset of three or more relations"
        return "each component decided on its plan's tau"

    def describe(self) -> str:
        """The ``engine:`` explain line."""
        shape = "cyclic" if self.cyclic else "acyclic"
        return f"engine: {self.engine or 'unpinned'} (scheme {shape}; {self.reason})"

    def structure_lines(self) -> List[str]:
        """Explain lines for the multiway structure: the join tree
        (root first, children indented) or the expansion order."""
        if self.tree is not None:
            depths: Dict[Any, int] = {}
            lines = ["join tree:"]
            for node, parent in self.tree:
                depths[node] = 0 if parent is None else depths[parent] + 1
                lines.append("  " * (depths[node] + 1) + format_attrs(node))
            return lines
        if self.expansion is not None:
            return ["expansion order: " + " -> ".join(self.expansion)]
        return []

    def _edges(self) -> List[Tuple[AttributeSet, AttributeSet]]:
        """The join tree's edges, each pair in sorted-scheme order."""
        return [
            (node, parent) if node.sorted() <= parent.sorted() else (parent, node)
            for node, parent in self.tree[1:]
        ]

    def structure_summary(self) -> Optional[Tuple[str, str]]:
        """The multiway structure as one ``(key, value)`` pair for the
        profile summary, or ``None`` when no kernel structure applies."""
        if self.tree is not None:
            pairs = (f"{format_attrs(a)}-{format_attrs(b)}" for a, b in self._edges())
            return ("join tree", ", ".join(sorted(pairs)))
        if self.expansion is not None:
            return ("expansion order", " -> ".join(self.expansion))
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        cover = self.cover
        return {
            "engine": self.engine,
            "effective": self.effective,
            "cyclic": self.cyclic,
            "connected": self.connected,
            "reason": self.reason,
            "agm": None if cover is None else cover.to_dict(),
            "components": [
                {"relations": size, "cyclic": cyclic} for size, cyclic in self.components
            ],
            "tree": None if self.tree is None else sorted(
                [list(a.sorted()), list(b.sorted())] for a, b in self._edges()
            ),
            "expansion": None if self.expansion is None else list(self.expansion),
        }

    def __repr__(self) -> str:
        return f"<EngineRouting {self.engine or 'unpinned'} cyclic={self.cyclic}>"


class ComponentExecution(NamedTuple):
    """How ``Plan.execute`` runs one component ``C`` of >= 3 relations:
    on the kernel ``engine`` names, or its plan subtree (``"plan"``).
    ``rho = plan_tau / (inputs + output)``: τ(S*_C), the cost of the
    strategy's subtree for ``C``, over Σ_{R∈C}|R| + τ(R_C), what the
    reducer at least reads and emits.  The four are ``None`` when no
    kernel could run ``C``: it is not a node of the strategy, or the
    database's pin has no kernel for its shape.  ``inner``, ``upper``
    and ``agm`` are the terms of the :class:`CyclicDecision` that built
    a cyclic ``C`` (``None`` otherwise)."""

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
    """The per-component engine decision, and the scheme description
    ``explain`` prints.

    On an unpinned database a cyclic component runs the executor
    :meth:`decide_cyclic` picks while the subset DP plans it, and an
    acyclic one of three or more relations runs Yannakakis iff its
    ``rho`` reaches :data:`RHO_STAR` (:meth:`execution`).  A pin
    overrides both: ``"vector"`` runs every plan binary, ``"wcoj"``
    runs Generic Join on cyclic components only, and ``"yannakakis"``
    runs both kernels.
    """

    def __init__(self, db: Database):
        self._db = db

    def route(self) -> EngineRouting:
        """The :class:`EngineRouting` of the database.  The AGM cover of
        a connected scheme goes into the database's per-mask memo
        (:meth:`Database.cover`), where :meth:`decide_cyclic` reads it."""
        db = self._db
        index = db.scheme.subset_index()
        parts = db.component_trees()
        cyclic = any(tree is None for _, tree in parts)
        connected = len(parts) == 1
        components = tuple((bin(mask).count("1"), tree is None) for mask, tree in parts)
        routing = EngineRouting(db.engine, cyclic, connected, components)
        if not connected:
            return routing
        tree = expansion = None
        effective = routing.effective
        if effective == "yannakakis" and not cyclic:
            schemes = index.schemes
            tree = ((schemes[0], None),) + tuple(
                (schemes[child.bit_length() - 1], schemes[parent.bit_length() - 1])
                for child, parent in parts[0][1]
            )
        elif cyclic and effective != "vector":
            expansion = choose_order(index.schemes)
        return routing._replace(cover=db.cover(index.full), tree=tree, expansion=expansion)

    @staticmethod
    def decide_cyclic(db: Database, mask: int, inner: int) -> CyclicDecision:
        """The executor for the cyclic component ``mask`` of an unpinned
        database whose plan's non-root steps produce ``inner`` tuples:
        the rule of :class:`CyclicDecision`.  U reads the taus of
        ``mask``'s proper subsets the DP already asked for, moving no
        cache counter; the AGM bound is ``C``'s cover
        (:meth:`Database.cover`)."""
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
        agm = db.cover(mask).bound
        bound = AGM_SHARE * agm if upper is None else min(upper, AGM_SHARE * agm)
        return CyclicDecision("wcoj" if inner >= bound else "plan", inner, upper, agm)

    @staticmethod
    def execution(strategy: Strategy, cost: int) -> Tuple[ComponentExecution, ...]:
        """How ``Plan.execute`` runs each component of >= 3 relations of
        ``strategy``'s database (of tau ``cost``), from taus costing it
        left in the caches.  A component runs the strategy's steps
        unless the database's pin allows a kernel for its shape and it
        is a node of the strategy: if cyclic, the executor the DP's
        :class:`CyclicDecision` names (:meth:`Database.decision`) and
        Generic Join when no DP decided it; if acyclic, Yannakakis when
        pinned to ``"yannakakis"`` and, unpinned, iff ``rho`` >=
        :data:`RHO_STAR`."""
        db = strategy.database
        pin = db.engine
        index = db.scheme.subset_index()
        nodes: Dict[FrozenSet[AttributeSet], Strategy] = {}
        out = []
        for mask, tree in db.component_trees():
            cyclic = tree is None
            members = index.members(mask)
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
            if pin == "vector" or (pin == "wcoj" and not cyclic):
                engine, reason = "plan", f"{pin} engine"
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
                elif pin == "yannakakis":
                    engine, reason = "yannakakis", "pinned on the database"
                else:
                    engine = "yannakakis" if rho >= RHO_STAR else "plan"
                    reason = f"rho {'<' if engine == 'plan' else '>='} {RHO_STAR}"
            out.append(ComponentExecution(subset, names, cyclic, engine, reason, *terms))
        return tuple(out)
