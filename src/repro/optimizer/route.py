"""Engine routing: which kernel should execute a query's joins.

The binary-join machinery this library is built around is provably fine
on alpha-acyclic schemes *when the output is large* -- a join tree gives
a binary order whose intermediates never exceed input + output -- but
two shapes defeat every binary order:

* **cyclic** schemes: the triangle can force every pairwise plan through
  a Θ(N²) intermediate while the output is O(N^1.5) (the AGM bound,
  :mod:`repro.wcoj.agm`), and Generic Join runs within the bound;
* **acyclic** schemes with selective interaction: pairwise joins can be
  Θ(N²) while the full output is tiny, and the Yannakakis full reducer
  (:mod:`repro.yannakakis`) bounds every intermediate by input + output.

:class:`EngineRouter` encodes the resulting policy.  It never overrides
an explicit choice -- a database pinned with ``engine=`` stays put --
but an unpinned database (which runs as ``"vector"``) has every
connected component classified: cyclic components of three or more
relations want ``"wcoj"``, acyclic ones want ``"yannakakis"``, and
everything else stays on ``"vector"``.  A database mixing both kinds
routes to ``"yannakakis"``, which runs *both* multiway kernels so each
connected subset runs on its best one (see
:meth:`~repro.database.Database._multiway_join`).

The :class:`EngineRouting` record the router returns is the one
provenance shape for every engine decision: it travels on plan and
profile provenance so ``explain`` can say which engine ran and why,
with the AGM bound, the join tree (acyclic) or the Generic-Join
expansion order (cyclic) alongside.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.database import Database
from repro.relational.attributes import format_attrs
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.jointree import JoinTree, build_join_tree
from repro.schemegraph.scheme import DatabaseScheme
from repro.wcoj.agm import FractionalEdgeCover, fractional_edge_cover
from repro.wcoj.order import choose_order

__all__ = ["EngineRouter", "EngineRouting"]


class EngineRouting:
    """Why a query runs on the engine it runs on.

    ``requested`` is the engine the database would have used on its own
    (its pin, or ``"vector"`` when unpinned); ``effective`` the engine the
    router chose; ``cyclic``/``connected`` the scheme-shape facts the
    decision rests on; ``reason`` a one-line human explanation;
    ``cover`` the optimal fractional edge cover of the scheme hypergraph
    (the AGM output bound), attached whenever the scheme is connected;
    ``components`` the per-connected-component verdicts
    ``(relations, cyclic, engine)`` the decision aggregates; ``tree``
    the join tree the Yannakakis pipeline sweeps (connected acyclic
    schemes); and ``expansion`` the Generic-Join attribute order
    (connected cyclic schemes) -- the last two feed the ``explain``
    rendering of the multiway structure.
    """

    __slots__ = (
        "requested",
        "effective",
        "cyclic",
        "connected",
        "reason",
        "cover",
        "components",
        "tree",
        "expansion",
    )

    def __init__(
        self,
        requested: str,
        effective: str,
        cyclic: bool,
        connected: bool,
        reason: str,
        cover: Optional[FractionalEdgeCover] = None,
        components: Tuple[Tuple[int, bool, str], ...] = (),
        tree: Optional[JoinTree] = None,
        expansion: Optional[Tuple[str, ...]] = None,
    ):
        self.requested = requested
        self.effective = effective
        self.cyclic = cyclic
        self.connected = connected
        self.reason = reason
        self.cover = cover
        self.components = components
        self.tree = tree
        self.expansion = expansion

    @property
    def routed(self) -> bool:
        """True when the router changed the engine."""
        return self.effective != self.requested

    def describe(self) -> str:
        """The ``engine:`` explain line."""
        shape = "cyclic" if self.cyclic else "acyclic"
        if self.routed:
            return (
                f"engine: {self.effective} (requested {self.requested}; "
                f"scheme {shape} -> {self.reason})"
            )
        return f"engine: {self.effective} (scheme {shape}; {self.reason})"

    def structure_lines(self) -> List[str]:
        """Explain lines for the multiway structure, if any.

        Connected acyclic schemes render the join tree the
        Yannakakis sweeps run over (root first, children indented);
        connected cyclic schemes render the Generic-Join expansion
        order.  Binary-only routings render nothing.
        """
        if self.tree is not None:
            nodes = self.tree.scheme.sorted_schemes()
            order = self.tree.rooted_at(nodes[0])
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
        """The multiway structure as one ``(key, value)`` pair for
        aligned key-value renderings (the profile summary), or ``None``
        when the routing is binary-only."""
        if self.tree is not None:
            edges = sorted(
                (format_attrs(a), format_attrs(b)) for a, b in self.tree.edges
            )
            return ("join tree", ", ".join(f"{a}-{b}" for a, b in edges))
        if self.expansion is not None:
            return ("expansion order", " -> ".join(self.expansion))
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        return {
            "requested": self.requested,
            "effective": self.effective,
            "routed": self.routed,
            "cyclic": self.cyclic,
            "connected": self.connected,
            "reason": self.reason,
            "agm": self.cover.to_dict() if self.cover is not None else None,
            "components": [
                {"relations": size, "cyclic": cyc, "engine": engine}
                for size, cyc, engine in self.components
            ],
            "tree": (
                sorted(
                    sorted([list(a.sorted()), list(b.sorted())])
                    for a, b in self.tree.edges
                )
                if self.tree is not None
                else None
            ),
            "expansion": (
                list(self.expansion) if self.expansion is not None else None
            ),
        }

    def __repr__(self) -> str:
        arrow = f"{self.requested}->{self.effective}" if self.routed else self.effective
        return f"<EngineRouting {arrow} cyclic={self.cyclic}>"


class EngineRouter:
    """Classify a database's connected subsets and pick its engine.

    The router only ever *upgrades the default*: a database pinned with
    ``engine=`` keeps its pin.  The decision matrix (also in
    docs/api.md):

    ========================  ==========================================
    situation                 effective engine
    ========================  ==========================================
    ``Database(engine=...)``  the pin, always
    some cyclic component     ``wcoj`` (``yannakakis`` when acyclic
    of >= 3 relations         components of >= 3 relations coexist)
    some acyclic component    ``yannakakis``
    of >= 3 relations
    everything else           ``vector``
    ========================  ==========================================
    """

    def __init__(self, db: Database):
        self._db = db

    @staticmethod
    def classify(subscheme: DatabaseScheme) -> str:
        """The engine a single connected subset wants: ``"wcoj"`` for
        cyclic subsets of three or more relations, ``"yannakakis"`` for
        acyclic ones, ``"vector"`` below three relations (binary plans
        are already optimal on one or two relations)."""
        if len(subscheme) < 3:
            return "vector"
        return "yannakakis" if is_alpha_acyclic(subscheme) else "wcoj"

    def route(self) -> EngineRouting:
        """Decide the execution engine for the database and say why."""
        db = self._db
        scheme = db.scheme
        cyclic = not is_alpha_acyclic(scheme)
        connected = scheme.is_connected()
        cover = None
        if connected:
            relations = db.relations()
            cover = fractional_edge_cover(
                [rel.scheme for rel in relations],
                [len(rel) for rel in relations],
            )
        components = tuple(
            (len(component), not is_alpha_acyclic(component), self.classify(component))
            for component in scheme.components()
        )

        def finish(requested: str, effective: str, reason: str) -> EngineRouting:
            tree = None
            expansion = None
            if connected and effective == "yannakakis" and not cyclic:
                tree = build_join_tree(scheme)
            elif connected and cyclic and effective in ("wcoj", "yannakakis"):
                expansion = choose_order(
                    [rel.scheme for rel in db.relations()]
                )
            return EngineRouting(
                requested, effective, cyclic, connected, reason,
                cover, components, tree, expansion,
            )

        pinned = db.pinned_engine
        if pinned is not None:
            return finish(pinned, pinned, "pinned on the database")
        requested = db.engine
        wanted = {engine for _, _, engine in components}
        if "yannakakis" in wanted and "wcoj" in wanted:
            return finish(
                requested, "yannakakis",
                "mixed components: semijoin reduction on acyclic subsets, "
                "generic join on cyclic ones",
            )
        if "yannakakis" in wanted:
            return finish(
                requested, "yannakakis",
                "semijoin reduction bounds intermediates by the output",
            )
        if "wcoj" in wanted:
            return finish(
                requested, "wcoj",
                "generic join runs within the AGM bound",
            )
        return finish(
            requested, requested,
            "no connected subset of three or more relations",
        )
