"""Databases: a database scheme paired with relation states.

This is the paper's ``𝒟 = (D, D)`` object.  A :class:`Database` holds one
relation state per relation scheme and provides the derived quantities
every other subsystem needs:

* ``R_E`` -- the natural join of the states of a subset ``E ⊆ D``
  (:meth:`Database.join_of`), memoized because the condition checkers and
  exhaustive optimizers evaluate it for many overlapping subsets;
* ``tau(R_E)`` (:meth:`Database.tau_of`), served by a **tau-only path**
  that counts the join without materializing it whenever it can;
* sub-databases (:meth:`Database.restrict`).

The tau-only path (docs/performance.md) works on the scheme's
:class:`~repro.schemegraph.index.SubsetIndex`: a subset is an int mask,
and :meth:`Database.tau_of_mask` is the one entry every tau lookup goes
through (``tau_of`` resolves its schemes to the mask).  It first
consults the join memo and a separate tau-cache of counts, both keyed
by mask.  On a miss it routes by shape -- a singleton subset is
just ``len(state)``; an unconnected subset is the product of its lowest
component's tau and the rest's (its join *is* the Cartesian product of
its components' joins); a connected subset with a join tree (the
index's, see :meth:`~repro.schemegraph.index.SubsetIndex.join_tree`:
the induced subgraph when the scheme's intersection graph is a forest,
else a Kruskal pass that also decides alpha-acyclicity) is 0 if it
holds an empty relation, and is otherwise counted on that tree, on
every engine, by the reducer's bottom-up sweep with weights
(:func:`~repro.yannakakis.join.yannakakis_count`; each row starts with
weight 1; leaf to root, a parent row's weight is multiplied by the
summed weights of the child rows it joins with, and parents with no
match drop to 0 -- the running intersection property makes tree-local
agreement imply global consistency, so the root weights sum to the
exact join cardinality).  The sweep reads each relation's table by its
bit, and files its messages and each subset's root weights in a memo
on the database (:func:`~repro.yannakakis.join._count_subset`), so
subsets that share a subtree count it once, and a subset whose root
has two or more children multiplies the root weights of a smaller
subset by one message.  A cyclic connected subset
has no join tree.  Unless the database is pinned to ``"vector"``,
Generic Join counts every proper one
(:func:`~repro.wcoj.join.generic_count`: weighted tries over the
shared attributes only, nothing materialized), while the whole database
``R_D`` is still joined and memoized, because ``Plan.execute`` reads it
back; the subset DP asks for its tau last, once every proper subset is
counted.  On an unpinned database the DP instead hands each cyclic
component ``C`` of the scheme to the router when it asks for tau(R_C):
the router picks Generic Join or the DP's plan for ``C``, that executor
builds ``R_C`` into the join memo, tau(R_C) is its length, and the
decision is kept (:meth:`Database.decision`).  On the ``"vector"`` pin,
the reference, every cyclic subset is joined (binary joins, memoized)
and its length taken.  The caches and the count memo are unbounded
and live as long as the database.

A database is unpinned by default: which executor runs each component
of three or more relations is then decided per plan
(:class:`~repro.optimizer.route.EngineRouter`).  ``Database(engine=...)``
with one of :data:`ENGINES` pins it, and the pin overrides that choice:
``"vector"`` runs no kernel, ``"wcoj"`` runs Generic Join on cyclic
components only, and ``"yannakakis"`` runs the semijoin pipeline on
acyclic components and Generic Join on cyclic ones.  The pin also names
the kernel :meth:`Database.join_of` runs on a connected subset of three
or more relations; an unpinned database joins it by the binary peel.
Every kernel runs through one entry, :meth:`Database.run_kernel`.  No
engine state lives at module level, so databases carrying different
pins can run in concurrent threads.

The paper's relation schemes within one database are distinct sets of
attributes, and we enforce that; display names are carried by the
relations for readable strategies.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Union,
)

from repro.errors import SchemaError
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet, AttrsLike, attrs, format_attrs
from repro.relational.columnar import ColumnarTable
from repro.relational.relation import Relation
from repro.runtime.core import KernelExhausted, current_runtime
from repro.schemegraph.index import TreeEdges, bits_of
from repro.schemegraph.scheme import DatabaseScheme
from repro.wcoj.agm import FractionalEdgeCover, fractional_edge_cover
from repro.wcoj.join import generic_count, generic_join
from repro.yannakakis.join import CountMemo, _count_subset, yannakakis_join

if TYPE_CHECKING:
    from repro.optimizer.route import CyclicDecision

#: What the subset DP defers to the count of an unpinned database's
#: cyclic component: a call returning the router's decision and the
#: build of the component's join that it picks.
Decide = Callable[[], Tuple["CyclicDecision", Callable[[], Relation]]]

__all__ = ["ENGINES", "CacheStats", "Database", "database"]

#: The pins a database can carry (``Database(engine=...)``).  Binary
#: joins always run on the vector kernel; ``"vector"`` runs nothing
#: else, ``"wcoj"`` adds Generic Join for connected cyclic subsets, and
#: ``"yannakakis"`` adds semijoin reduction for connected acyclic
#: subsets plus Generic Join for cyclic ones.
ENGINES = ("vector", "wcoj", "yannakakis")

# Subset-join cache telemetry (see docs/observability.md).  The hit/miss
# counters cover both the join memo and the tau-cache: a tau-cache hit is
# a memoized subset join served without recomputation.
_TRACER = get_tracer()
_METRICS = get_registry()
_CACHE_HITS = _METRICS.counter(
    "db.subset_join.cache_hits", "memoized subset joins served from cache"
)
_CACHE_MISSES = _METRICS.counter(
    "db.subset_join.computed", "subset joins actually computed"
)
#: Per multiway kernel: the counter of runs abandoned to the binary
#: pipeline, and the site its runtime exhaustion is recorded under.
_KERNEL_FALLBACKS = {
    "wcoj": (
        _METRICS.counter(
            "wcoj.fallback", "generic joins abandoned to the binary kernel"
        ),
        "wcoj.generic_join",
    ),
    "yannakakis": (
        _METRICS.counter(
            "yannakakis.fallback", "acyclic pipelines abandoned to the binary kernel"
        ),
        "yannakakis.pipeline",
    ),
}

#: The engines that run a connected subset of three or more relations
#: on a multiway kernel.
_MULTIWAY = ("wcoj", "yannakakis")

#: Key type of the subset caches.
SubsetKey = FrozenSet[AttributeSet]


class CacheStats:
    """A point-in-time snapshot of one database's subset-cache behaviour.

    Returned by :meth:`Database.cache_stats`.  ``join_hits`` counts
    lookups served by the join memo (a materialized subset join),
    ``tau_hits`` lookups served by the count-only tau-cache, and
    ``computed`` the subset joins/counts actually computed;
    ``join_entries``/``tau_entries`` are the cache sizes at snapshot
    time.  Snapshots subtract (:meth:`delta`), so a profiler can charge
    cache traffic to individual plan steps.
    """

    __slots__ = ("join_hits", "tau_hits", "computed", "join_entries", "tau_entries")

    def __init__(
        self,
        join_hits: int = 0,
        tau_hits: int = 0,
        computed: int = 0,
        join_entries: int = 0,
        tau_entries: int = 0,
    ):
        self.join_hits = join_hits
        self.tau_hits = tau_hits
        self.computed = computed
        self.join_entries = join_entries
        self.tau_entries = tau_entries

    @property
    def hits(self) -> int:
        """All cache hits (join memo + tau-cache)."""
        return self.join_hits + self.tau_hits

    @property
    def lookups(self) -> int:
        """All subset lookups (hits + computed)."""
        return self.hits + self.computed

    @property
    def hit_rate(self) -> float:
        """``hits / lookups`` (0.0 when nothing was looked up)."""
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """The traffic between ``earlier`` and this snapshot (the counter
        differences; entry counts stay at this snapshot's values)."""
        return CacheStats(
            join_hits=self.join_hits - earlier.join_hits,
            tau_hits=self.tau_hits - earlier.tau_hits,
            computed=self.computed - earlier.computed,
            join_entries=self.join_entries,
            tau_entries=self.tau_entries,
        )

    def to_dict(self) -> Dict[str, float]:
        """A JSON-ready dict including the derived hit rate."""
        return {
            "join_hits": self.join_hits,
            "tau_hits": self.tau_hits,
            "computed": self.computed,
            "hit_rate": self.hit_rate,
            "join_entries": self.join_entries,
            "tau_entries": self.tau_entries,
        }

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} (join={self.join_hits} "
            f"tau={self.tau_hits}) computed={self.computed} "
            f"hit_rate={self.hit_rate:.3f}>"
        )


class Database:
    """An immutable database: one relation state per relation scheme."""

    __slots__ = (
        "_relations",
        "_scheme",
        "_join_cache",
        "_tau_cache",
        "_messages",
        "_tables",
        "_empty",
        "_join_hits",
        "_tau_hits",
        "_computed",
        "_connected",
        "_engine",
        "_parts",
        "_covers",
        "_deferred",
        "_decisions",
        # The resource sampler watches databases by weakref (a dropped
        # database must not be kept alive by telemetry).
        "__weakref__",
    )

    def __init__(
        self,
        relations: Iterable[Relation],
        *,
        engine: Optional[str] = None,
    ):
        if engine is not None and engine not in ENGINES:
            raise SchemaError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self._engine = engine
        relations = tuple(relations)
        if not relations:
            raise SchemaError("a database must contain at least one relation")
        by_scheme: Dict[AttributeSet, Relation] = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                raise SchemaError(f"expected Relation instances, got {rel!r}")
            if rel.scheme in by_scheme:
                raise SchemaError(
                    f"duplicate relation scheme {format_attrs(rel.scheme)}; the "
                    "paper's database schemes are sets of distinct relation schemes"
                )
            by_scheme[rel.scheme] = rel
        self._relations = by_scheme
        self._scheme = DatabaseScheme(by_scheme)
        # Memo: subset-index mask -> joined relation state; the
        # tau-cache holds, by mask, the counts of subsets never
        # materialized, and the count memo the Yannakakis counter's
        # messages and root weights (yannakakis.join._count_subset).
        self._join_cache: Dict[int, Relation] = {}
        self._tau_cache: Dict[int, int] = {}
        self._messages: CountMemo = {}
        # Each relation's table by its bit, and the mask of the empty
        # relations, found on first use (see _bit_tables()).
        self._tables: Optional[Dict[int, ColumnarTable]] = None
        self._empty = 0
        # The scheme's components with their join trees, the AGM cover
        # per mask, and, on an unpinned database, the DP's pending
        # decision per cyclic component while it asks for the
        # component's tau and the decision that built each one.
        self._parts: Optional[Tuple[Tuple[int, Optional[TreeEdges]], ...]] = None
        self._covers: Dict[int, FractionalEdgeCover] = {}
        self._deferred: Dict[int, Decide] = {}
        self._decisions: Dict[int, CyclicDecision] = {}
        # Per-instance cache accounting behind Database.cache_stats().
        # Plain int bumps on paths that already do cache lookups -- cheap
        # enough to track unconditionally, so the snapshot API works with
        # observability off.
        self._join_hits = 0
        self._tau_hits = 0
        self._computed = 0
        # Lazily enumerated connected subsets (see connected_subsets()).
        self._connected: Optional[Tuple[DatabaseScheme, ...]] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Dict[str, Relation]) -> "Database":
        """Build from ``{name: relation}``, attaching the names."""
        return cls(rel.with_name(name) for name, rel in mapping.items())

    # -- accessors ---------------------------------------------------------------

    @property
    def scheme(self) -> DatabaseScheme:
        """The database scheme ``D``."""
        return self._scheme

    def connected_subsets(self) -> Tuple[DatabaseScheme, ...]:
        """All connected subsets of the scheme, enumerated once per
        database.

        Every condition checker quantifies over exactly this collection,
        and its witnesses hold these schemes.  Position ``p`` is the
        subset ``scheme.subset_index().connected()[p]``: the order is the
        index's canonical enumeration order, so witnesses come out in the
        same order on every run.
        """
        if self._connected is None:
            self._connected = tuple(self._scheme.connected_subsets())
        return self._connected

    def relations(self) -> Tuple[Relation, ...]:
        """The relation states in deterministic (scheme-sorted) order."""
        return tuple(
            self._relations[s] for s in self._scheme.sorted_schemes()
        )

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations())

    def __len__(self) -> int:
        return len(self._relations)

    def state_for(self, scheme: AttrsLike) -> Relation:
        """The relation state over the given relation scheme."""
        key = attrs(scheme)
        try:
            return self._relations[key]
        except KeyError:
            raise SchemaError(
                f"no relation over {format_attrs(key)} in this database"
            ) from None

    def relation_named(self, name: str) -> Relation:
        """The relation with the given display name."""
        for rel in self._relations.values():
            if rel.name == name:
                return rel
        raise SchemaError(f"no relation named {name!r} in this database")

    def name_of(self, scheme: AttrsLike) -> str:
        """A display label for a relation scheme: its name if set, else the
        formatted scheme."""
        rel = self.state_for(scheme)
        return rel.name if rel.name else format_attrs(rel.scheme)

    # -- joins -------------------------------------------------------------------

    def _resolve_subset(
        self, subset: Optional[Iterable[AttrsLike]]
    ) -> SubsetKey:
        schemes = self._scheme.schemes
        if subset is None:
            return schemes
        if isinstance(subset, DatabaseScheme):
            chosen = subset.schemes
        else:
            chosen = frozenset(attrs(s) for s in subset)
        if not chosen <= schemes:
            raise SchemaError(
                "schemes not in this database: "
                + ", ".join(format_attrs(s) for s in sorted(chosen - schemes, key=tuple))
            )
        if not chosen:
            raise SchemaError("cannot join an empty subset of relations")
        return chosen

    @property
    def engine(self) -> Optional[str]:
        """The ``engine=`` pin, one of :data:`ENGINES`, or ``None`` when
        the database is unpinned (see the module docstring)."""
        return self._engine

    def with_engine(self, engine: Optional[str]) -> "Database":
        """A copy pinned to ``engine`` (``None`` unpins).

        The copy shares the relation states but starts with fresh
        caches: joins computed on one engine must not be served to
        another (the bytes agree, but provenance and telemetry would
        lie about which kernel did the work).
        """
        if engine == self._engine:
            return self
        copy = Database(self._relations.values(), engine=engine)
        copy._scheme = self._scheme  # immutable: one subset index serves both
        return copy

    def component_trees(self) -> Tuple[Tuple[int, Optional[TreeEdges]], ...]:
        """The components of the whole scheme as ``(mask, join tree)``
        pairs of the subset index, lowest component first; a cyclic
        component's tree is ``None``.  Found once per database."""
        parts = self._parts
        if parts is None:
            index = self._scheme.subset_index()
            parts = self._parts = tuple(
                (mask, index.join_tree(mask)) for mask in index.components(index.full)
            )
        return parts

    def cover(self, mask: int) -> FractionalEdgeCover:
        """The AGM fractional edge cover of the states of the subset
        ``mask``, whose bound caps its join's size; solved once per
        mask."""
        cover = self._covers.get(mask)
        if cover is None:
            states = [self._relations[s] for s in self._scheme.subset_index().members(mask)]
            cover = self._covers[mask] = fractional_edge_cover(
                [rel.scheme for rel in states], [len(rel) for rel in states]
            )
        return cover

    def decision(self, mask: int) -> Optional[CyclicDecision]:
        """The :class:`~repro.optimizer.route.CyclicDecision` whose
        executor built the join of the cyclic component ``mask``, or
        ``None`` when no subset DP decided it (the database is pinned,
        or something else asked for the component's tau first).  The
        first DP that asks for the component's tau decides; a later plan
        reads the same join back from the memo."""
        return self._decisions.get(mask)

    @contextmanager
    def deferring(self, mask: int, decide: Decide) -> Iterator[None]:
        """Within the block, a count of the cyclic component ``mask``
        runs ``decide()`` instead: it returns the decision and the build
        of ``R_mask`` it picks, the build's result is memoized, tau is
        its length, and the decision is kept (:meth:`decision`).  The
        subset DP asks for the component's tau inside this block, so its
        cost source reaches the count; a cost source that never reaches
        this database leaves ``decide`` unrun."""
        self._deferred[mask] = decide
        try:
            yield
        finally:
            self._deferred.pop(mask, None)

    def join_of(self, subset: Optional[Iterable[AttrsLike]] = None) -> Relation:
        """``R_E``: the natural join of the states of ``E ⊆ D``.

        ``subset=None`` joins the whole database (``R_D``).  Results are
        memoized per subset; the memo is filled recursively so overlapping
        subsets share work.
        """
        return self._join_memo(self._resolve_subset(subset))

    def _join_memo(
        self, chosen: SubsetKey, compute: Optional[Callable[[], Relation]] = None
    ) -> Relation:
        """The memoized subset join, computed on a miss by ``compute``
        (``Plan.execute`` passes a step: its children's states joined,
        or its kernel's :meth:`run_kernel`) or by :meth:`_compute_join`,
        which reads the subset's components off the subset index: it
        joins an unconnected subset component by component, hands a
        connected one of three or more relations to the pinned engine's
        kernel, and otherwise peels off a scheme whose removal keeps the
        subset connected (a spanning-tree leaf), so no intermediate is a
        Cartesian product of a connected input.
        """
        mask = self._scheme.subset_index().mask_of(chosen)
        cached = self._join_cache.get(mask)
        if cached is not None:
            self._join_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return cached
        self._computed += 1
        if compute is None:
            compute = partial(self._compute_join, chosen, mask)
        if _TRACER.enabled:
            with _TRACER.span("db.join", relations=len(chosen)) as span:
                result = compute()
                span.set_attribute("tau", len(result))
            _CACHE_MISSES.inc()
        else:
            result = compute()
        self._join_cache[mask] = result
        return result

    def _compute_join(self, chosen: SubsetKey, mask: int) -> Relation:
        index = self._scheme.subset_index()
        if not mask & (mask - 1):
            return self._relations[index.schemes[mask.bit_length() - 1]]
        components = index.components(mask)
        if len(components) > 1:
            members = index.members
            result = self._join_memo(frozenset(members(components[0])))
            for part in components[1:]:
                result = result.join(self._join_memo(frozenset(members(part))))
            return result
        if self._engine in _MULTIWAY and len(chosen) >= 3:
            # The pin's kernel: Generic Join for a cyclic subset, and on
            # "yannakakis" the semijoin pipeline for an acyclic one.
            tree = index.join_tree(mask)
            if tree is None:
                return self.run_kernel("wcoj", chosen, mask)
            if self._engine == "yannakakis":
                return self.run_kernel("yannakakis", chosen, mask, tree)
        return self._binary_join(chosen, mask)

    def _binary_join(self, chosen: SubsetKey, mask: int) -> Relation:
        """The binary pipeline's join of a connected subset: its
        spanning-tree leaf (:meth:`SubsetIndex.spanning_leaf
        <repro.schemegraph.index.SubsetIndex.spanning_leaf>`) joined onto
        the memoized join of the rest."""
        index = self._scheme.subset_index()
        leaf = index.schemes[index.spanning_leaf(mask).bit_length() - 1]
        return self._join_memo(chosen - {leaf}).join(self._relations[leaf])

    def run_kernel(
        self,
        kernel: str,
        chosen: SubsetKey,
        mask: Optional[int] = None,
        tree: Optional[TreeEdges] = None,
        count: bool = False,
    ) -> Union[Relation, int]:
        """The join of the connected subset ``chosen`` (of three or more
        relations) on the multiway ``kernel``, computed without the join
        memo: the one entry through which every kernel runs.  The
        caller names the kernel from the record that chose it (a
        :class:`~repro.optimizer.route.ComponentExecution`, a
        :class:`~repro.optimizer.route.CyclicDecision`, or the pin).

        ``"wcoj"`` runs Generic Join on a cyclic subset; ``"yannakakis"``
        runs the semijoin-reduction pipeline on an acyclic one, along
        ``tree``, the subset index's join tree of ``mask`` (looked up
        when not given).  ``count=True`` asks Generic Join for the
        subset's tau instead (:func:`~repro.wcoj.join.generic_count`,
        nothing materialized).

        When the kernel trips the ambient runtime's deadline or budget,
        or the runtime is exhausted before the kernel starts, the
        fallback is recorded once -- on the runtime, on the kernel's own
        ``*.fallback`` counter, and on the flight recorder -- so
        degradation provenance names the abandoned kernel, and the
        binary pipeline serves the result (or its length) without
        entering the kernel (again) on this subset.
        """
        index = self._scheme.subset_index()
        if mask is None:
            mask = index.mask_of(chosen)
        runtime = current_runtime()
        trigger = None if runtime is None else runtime.exhausted()
        if trigger is None:
            if count:
                join = generic_count
            elif kernel == "wcoj":
                join = generic_join
            else:
                if tree is None:
                    tree = index.join_tree(mask)
                join = partial(yannakakis_join, tree=tree)
            tables = self._bit_tables()
            try:
                result = join([tables[bit] for bit in bits_of(mask)], runtime=runtime)
            except KernelExhausted as exc:
                trigger = exc.trigger
            else:
                if count:
                    return result
                return Relation._from_table(AttributeSet(result.order), result)
        fallbacks, site = _KERNEL_FALLBACKS[kernel]
        if _METRICS.enabled:
            fallbacks.inc(trigger=trigger)
        if runtime is not None:
            runtime.record_exhaustion(trigger, site)
            runtime.record_fallback(trigger, "binary join pipeline")
        get_recorder().record(
            "event",
            f"{kernel}.fallback",
            trigger=trigger,
            relations=len(chosen),
        )
        binary = self._binary_join(chosen, mask)
        return len(binary) if count else binary

    def _bit_tables(self) -> Dict[int, ColumnarTable]:
        """Each relation's columnar table by its subset-index bit, found
        once per database with the mask of the empty relations
        (``_empty``)."""
        tables = self._tables
        if tables is None:
            bit_of = self._scheme.subset_index().bit_of
            tables = {}
            for scheme, rel in self._relations.items():
                bit = bit_of[scheme]
                tables[bit] = rel._table()
                if not len(rel):
                    self._empty |= bit
            self._tables = tables
        return tables

    def evaluate(self) -> Relation:
        """``R_D``: the natural join of all relation states."""
        return self.join_of(None)

    # -- the tau-only path --------------------------------------------------------

    def tau_of(self, subset: Optional[Iterable[AttrsLike]] = None) -> int:
        """``tau(R_E)``: the tuple count of the subset join.

        Resolves ``subset`` (``None`` is the whole database) to its
        subset-index mask and asks :meth:`tau_of_mask`.  A
        :class:`DatabaseScheme` or a frozenset of this database's
        relation schemes (what strategies, the DP's ``subset_cost`` and
        estimators pass) maps to its mask directly.
        """
        schemes = self._scheme.schemes
        if isinstance(subset, DatabaseScheme):
            subset = subset.schemes
        if not (isinstance(subset, frozenset) and subset and subset <= schemes):
            subset = self._resolve_subset(subset)
        return self.tau_of_mask(self._scheme.subset_index().mask_of(subset))

    def tau_of_mask(self, mask: int) -> int:
        """``tau`` of the subset ``mask`` of the scheme's
        :class:`~repro.schemegraph.index.SubsetIndex`: the one entry
        every tau lookup goes through.

        Served without materializing the join whenever possible: a cached
        full result or cached count answers immediately; otherwise an
        unconnected subset is the product of its lowest component's tau
        and the rest's, connected acyclic subsets are counted by
        :func:`~repro.yannakakis.join.yannakakis_count` on the subset
        index's join tree, on every engine, with this database's count
        memo, and, unless the database is pinned to ``"vector"``, proper
        cyclic subsets by Generic Join's counting mode (see the module
        docstring).  Only ``R_D`` itself, and cyclic subsets on the
        vector pin, fall back to ``len(join_of(...))``.  Each call counts
        one cache hit or one computed subset; the lookups it makes on
        the way move no counter.
        """
        cached = self._join_cache.get(mask)
        if cached is not None:
            self._join_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return len(cached)
        tau = self._tau_cache.get(mask)
        if tau is not None:
            self._tau_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return tau
        if not 0 < mask <= self._scheme.subset_index().full:
            raise SchemaError(f"{mask!r} is not a subset mask of {self._scheme}")
        self._computed += 1
        if _TRACER.enabled:
            with _TRACER.span(
                "db.join", relations=bin(mask).count("1"), mode="count"
            ) as span:
                tau = self._count(mask)
                span.set_attribute("tau", tau)
            _CACHE_MISSES.inc()
        else:
            tau = self._count(mask)
        self._tau_cache[mask] = tau
        return tau

    def cached_tau(self, mask: int) -> int:
        """tau of ``mask`` from the caches, or counted and cached (a
        single relation is just read), moving no cache counter: the read
        for taus an earlier lookup already counted, such as the router's
        of a component's proper subsets."""
        cached = self._join_cache.get(mask)
        if cached is not None:
            return len(cached)
        tau = self._tau_cache.get(mask)
        if tau is None:
            tau = self._count(mask)
            if mask & (mask - 1):
                self._tau_cache[mask] = tau
        return tau

    def _count(self, mask: int) -> int:
        """Count the subset ``mask``, which neither cache holds: a
        single relation's length; an unconnected subset's product of
        taus (its join is the Cartesian product of its components'
        joins); a cyclic component :meth:`deferring` holds, built by
        the executor its decision picks; a connected acyclic subset's
        0 if it holds an empty relation, else the
        :func:`~repro.yannakakis.join.yannakakis_count` sweep on the
        index's join tree (rooted at the lowest relation) over the
        tables by bit, with this database's count memo; a proper cyclic
        subset's :func:`~repro.wcoj.join.generic_count`
        unless the database is pinned to ``"vector"``; or else the
        memoized join's length."""
        index = self._scheme.subset_index()
        if not mask & (mask - 1):
            return len(self._relations[index.schemes[mask.bit_length() - 1]])
        decide = self._deferred.pop(mask, None)
        if decide is not None:
            # A cyclic component of an unpinned database, built once by
            # the executor its decision picks.
            decision, build = decide()
            self._decisions[mask] = decision
            return len(build())
        lowest = index.component(mask)
        if lowest != mask:
            tau = self.cached_tau(lowest)
            return tau * self.cached_tau(mask ^ lowest) if tau else 0
        tree = index.join_tree(mask)
        if tree is not None:
            tables = self._bit_tables()
            if mask & self._empty:
                return 0
            return _count_subset(tables, tree, mask, self._messages)
        # Cyclic connected subset: no join tree.  Generic Join counts a
        # proper subset, and joins R_D itself for Plan.execute to read
        # back; the vector pin materializes every cyclic subset.
        chosen = frozenset(index.members(mask))
        if self._engine == "vector":
            return len(self._join_memo(chosen))
        if mask != index.full:
            return self.run_kernel("wcoj", chosen, mask, count=True)
        return len(
            self._join_memo(chosen, partial(self.run_kernel, "wcoj", chosen, mask))
        )

    def is_nonnull(self) -> bool:
        """The paper's standing hypothesis ``R_D ≠ ∅``."""
        return self.tau_of_mask(self._scheme.subset_index().full) > 0

    # -- cache telemetry ----------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """A snapshot of this database's subset-cache counters.

        Counts accumulate per :class:`Database` instance from construction
        (restrictions and ``with_state`` copies start fresh) and are
        tracked with or without observability enabled.  Two snapshots
        subtract via :meth:`CacheStats.delta`, which is how the profiler
        (:mod:`repro.obs.profile`) charges cache traffic to plan steps.
        """
        return CacheStats(
            join_hits=self._join_hits,
            tau_hits=self._tau_hits,
            computed=self._computed,
            join_entries=len(self._join_cache),
            tau_entries=len(self._tau_cache),
        )

    def cache_counts(self) -> Tuple[int, int]:
        """``(hits, computed)`` as :meth:`cache_stats` would report them,
        read without building a snapshot (the profiler's per-call
        read)."""
        return self._join_hits + self._tau_hits, self._computed

    def reset_cache_stats(self) -> None:
        """Zero the hit/computed counters (cache contents are untouched)."""
        self._join_hits = 0
        self._tau_hits = 0
        self._computed = 0

    # -- derived databases ----------------------------------------------------------

    def restrict(self, subset: Iterable[AttrsLike]) -> "Database":
        """The sub-database ``(D', D')`` for ``D' ⊆ D``.

        The restriction shares no cache with the parent (sub-databases are
        cheap and typically short-lived).
        """
        if isinstance(subset, DatabaseScheme):
            chosen = subset.schemes
        else:
            chosen = frozenset(attrs(s) for s in subset)
        return Database((self._relations[s] for s in chosen), engine=self._engine)

    def with_state(self, replacement: Relation) -> "Database":
        """A database with the state over ``replacement.scheme`` replaced."""
        if replacement.scheme not in self._relations:
            raise SchemaError(
                f"no relation over {format_attrs(replacement.scheme)} to replace"
            )
        updated = dict(self._relations)
        updated[replacement.scheme] = replacement
        return Database(updated.values(), engine=self._engine)

    # -- presentation ------------------------------------------------------------------

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.name_of(rel.scheme)}({len(rel)})" for rel in self.relations()
        )
        return f"<Database {parts}>"


def database(*relations: Relation) -> Database:
    """Convenience constructor: ``database(r1, r2, r3)``."""
    return Database(relations)
