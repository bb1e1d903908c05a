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

The tau-only path (docs/performance.md): ``tau_of`` first consults the
join memo and a separate bounded tau-cache.  On a miss it routes by
shape, reading the scheme's
:class:`~repro.schemegraph.index.SubsetIndex` (the subset as an int
mask; no :class:`DatabaseScheme` is built per counted subset) -- a
singleton subset is just ``len(state)``; an unconnected subset is the
product of its components' taus (its join *is* their Cartesian
product); a connected subset with a join tree (the index's Kruskal
pass says alpha-acyclic) is counted on that tree, on every engine,
by :func:`~repro.yannakakis.join.yannakakis_count`, the reducer's
bottom-up sweep with weights (each row starts with weight 1; leaf to
root, a parent row's weight is multiplied by the summed weights of the
child rows it joins with, and parents with no match drop to 0 -- the
running intersection property makes tree-local agreement imply global
consistency, so the root weights sum to the exact join cardinality).
A cyclic connected subset has no join tree.  On the ``"wcoj"`` and
``"yannakakis"`` engines Generic Join counts every proper one
(:func:`~repro.wcoj.join.generic_count`: weighted tries over the
shared attributes only, nothing materialized), while the whole database
``R_D`` is still joined and memoized, because the subset DP asks for its
tau first and ``Plan.execute`` reads it back.  On the ``"vector"`` engine
every cyclic subset is joined (binary joins, memoized) and its length
taken.  Counts survive join-cache eviction: evicted results leave their
cardinality behind in the tau-cache.

Each database carries its own engine, ``Database(engine=...)`` with one
of :data:`ENGINES`.  The default ``None`` leaves it unpinned: it runs as
``"vector"``, and :class:`~repro.query.JoinQuery` may re-pin it through
:class:`~repro.optimizer.route.EngineRouter`.  No engine state lives at
module level, so databases carrying different engines can run in
concurrent threads.

The paper's relation schemes within one database are distinct sets of
attributes, and we enforce that; display names are carried by the
relations for readable strategies.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import SchemaError
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet, AttrsLike, attrs, format_attrs
from repro.relational.relation import Relation
from repro.runtime.core import current_runtime
from repro.schemegraph.index import SubsetIndex
from repro.schemegraph.scheme import DatabaseScheme
from repro.wcoj.join import (
    GenericJoinExhausted,
    generic_count,
    generic_join,
    record_fallback as record_wcoj_fallback,
)
from repro.yannakakis.join import (
    YannakakisExhausted,
    record_fallback as record_yannakakis_fallback,
    yannakakis_count,
    yannakakis_join,
)

__all__ = ["ENGINES", "CacheStats", "Database", "database"]

#: The engines a database can carry (``Database(engine=...)``).  Binary
#: joins always run on the vector kernel; ``"wcoj"`` adds Generic Join
#: for connected cyclic subsets, and ``"yannakakis"`` adds semijoin
#: reduction for connected acyclic subsets plus Generic Join for cyclic
#: ones.
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

_K = TypeVar("_K")
_V = TypeVar("_V")

#: Key type of the subset caches.
SubsetKey = FrozenSet[AttributeSet]


class _BoundedCache(Generic[_K, _V]):
    """A small LRU cache; ``capacity=None`` means unbounded.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry past capacity, handing each evicted pair to ``on_evict`` (the
    join memo uses this to leave the evicted result's tau behind in the
    tau-cache).
    """

    __slots__ = ("_data", "_capacity", "_on_evict")

    def __init__(
        self,
        capacity: Optional[int] = None,
        on_evict: Optional[Callable[[_K, _V], None]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be a positive int or None")
        self._data: "OrderedDict[_K, _V]" = OrderedDict()
        self._capacity = capacity
        self._on_evict = on_evict

    def get(self, key: _K, default: Optional[_V] = None) -> Optional[_V]:
        data = self._data
        value = data.get(key, default)
        if value is not default and self._capacity is not None:
            data.move_to_end(key)
        return value

    def put(self, key: _K, value: _V) -> None:
        data = self._data
        data[key] = value
        if self._capacity is not None:
            data.move_to_end(key)
            while len(data) > self._capacity:
                evicted_key, evicted_value = data.popitem(last=False)
                if self._on_evict is not None:
                    self._on_evict(evicted_key, evicted_value)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def values(self) -> Iterable[_V]:
        return self._data.values()


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
        "_join_hits",
        "_tau_hits",
        "_computed",
        "_connected",
        "_engine",
        # The resource sampler watches databases by weakref (a dropped
        # database must not be kept alive by telemetry).
        "__weakref__",
    )

    #: Default bound of the tau-cache.  Counts are a single int per subset,
    #: so the bound exists only to keep pathological enumerations in check.
    DEFAULT_TAU_CACHE_SIZE = 65536

    def __init__(
        self,
        relations: Iterable[Relation],
        *,
        join_cache_size: Optional[int] = None,
        tau_cache_size: Optional[int] = DEFAULT_TAU_CACHE_SIZE,
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
        # Memo: frozenset of relation schemes -> joined relation state.
        # Evicted joins leave their cardinality behind in the tau-cache so
        # tau_of never recomputes a count it once knew.
        self._tau_cache: _BoundedCache[SubsetKey, int] = _BoundedCache(
            tau_cache_size
        )
        # The hook closes over the tau-cache, not self: a reference back
        # to the database would put it in a cycle only the cyclic
        # collector frees.
        tau_cache = self._tau_cache
        self._join_cache: _BoundedCache[SubsetKey, Relation] = _BoundedCache(
            join_cache_size,
            on_evict=lambda key, rel: tau_cache.put(key, len(rel)),
        )
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
    def engine(self) -> str:
        """The execution engine this database's joins run on: the
        pinned ``engine=`` choice, or ``"vector"`` when unpinned."""
        return self._engine or "vector"

    @property
    def pinned_engine(self) -> Optional[str]:
        """The ``engine=`` choice this database was built with, or
        ``None`` when it is unpinned (runs as ``"vector"``, and
        :class:`~repro.query.JoinQuery` may re-pin it through
        :class:`~repro.optimizer.route.EngineRouter`)."""
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
        (``Plan.execute`` passes a step: its children's states joined) or
        by :meth:`_compute_join`, which peels off a scheme whose removal
        keeps the subset connected (a spanning-tree leaf), so no
        intermediate is a Cartesian product of a connected input, and
        joins an unconnected subset component by component.
        """
        cached = self._join_cache.get(chosen)
        if cached is not None:
            self._join_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return cached
        self._computed += 1
        if compute is None:
            compute = partial(self._compute_join, chosen)
        if _TRACER.enabled:
            with _TRACER.span("db.join", relations=len(chosen)) as span:
                result = compute()
                span.set_attribute("tau", len(result))
            _CACHE_MISSES.inc()
        else:
            result = compute()
        self._join_cache.put(chosen, result)
        return result

    def _compute_join(self, chosen: SubsetKey) -> Relation:
        if len(chosen) == 1:
            (only,) = chosen
            result = self._relations[only]
        else:
            components = DatabaseScheme(chosen).components()
            if len(components) > 1:
                parts = sorted(
                    (frozenset(c.schemes) for c in components),
                    key=lambda part: sorted(s.sorted() for s in part),
                )
                result = self._join_memo(parts[0])
                for part in parts[1:]:
                    result = result.join(self._join_memo(part))
            else:
                result = self._multiway_join(chosen)
                if result is None:
                    result = self._binary_join(chosen)
        return result

    def _binary_join(self, chosen: SubsetKey) -> Relation:
        """The binary pipeline's join of a connected subset: its
        spanning-tree leaf joined onto the memoized join of the rest."""
        leaf = self._spanning_tree_leaf(chosen)
        return self._join_memo(chosen - {leaf}).join(self._relations[leaf])

    def _multiway_join(
        self, chosen: SubsetKey, count: bool = False
    ) -> Union[Relation, int, None]:
        """Run a connected subset of >= 3 relations on this database's
        multiway kernel, or return ``None`` for the binary pipeline.

        The subset index's join tree decides acyclicity and is handed to
        the pipeline.  ``"yannakakis"`` sends acyclic subsets to the
        semijoin-reduction pipeline and cyclic ones to Generic Join, so a
        mixed database runs every subset on its best kernel.  ``"wcoj"``
        sends only cyclic subsets to Generic Join (a join tree already
        gives an optimal binary order on acyclic ones).

        ``count=True`` asks for the tau of a *cyclic* subset instead of
        its join (:meth:`_component_tau` counts acyclic ones with
        :func:`~repro.yannakakis.join.yannakakis_count`):
        :func:`~repro.wcoj.join.generic_count` counts it without
        materializing anything.

        When the kernel trips the ambient runtime's deadline or budget,
        the fallback is recorded once -- on the runtime, on the kernel's
        own ``*.fallback`` counter, and on the flight recorder -- so
        degradation provenance names the abandoned kernel, and the
        binary pipeline serves the result (or its length) without
        re-entering the kernel on this subset.
        """
        engine = self._engine
        if engine not in ("wcoj", "yannakakis") or len(chosen) < 3:
            return None
        index = self._scheme.subset_index()
        mask = index.mask_of(chosen)
        tree = None if count else index.join_tree(mask)
        if count:
            join, exhausted = generic_count, GenericJoinExhausted
            count_fallback = record_wcoj_fallback
            kernel, site = "wcoj", "wcoj.generic_join"
        elif tree is not None:
            if engine == "wcoj":
                return None
            join, exhausted = partial(yannakakis_join, tree=tree), YannakakisExhausted
            count_fallback = record_yannakakis_fallback
            kernel, site = "yannakakis", "yannakakis.pipeline"
        else:
            join, exhausted = generic_join, GenericJoinExhausted
            count_fallback = record_wcoj_fallback
            kernel, site = "wcoj", "wcoj.generic_join"
        tables = [self._relations[s]._table() for s in index.members(mask)]
        runtime = current_runtime()
        try:
            result = join(tables, runtime=runtime)
        except exhausted as exc:
            count_fallback(exc.trigger)
            if runtime is not None:
                runtime.record_exhaustion(exc.trigger, site)
                runtime.record_fallback(exc.trigger, "binary join pipeline")
            get_recorder().record(
                "event",
                f"{kernel}.fallback",
                trigger=exc.trigger,
                relations=len(chosen),
            )
            binary = self._binary_join(chosen)
            return len(binary) if count else binary
        if count:
            return result
        return Relation._from_table(AttributeSet(result.order), result)

    @staticmethod
    def _spanning_tree_leaf(chosen: SubsetKey) -> AttributeSet:
        """A scheme whose removal keeps the (connected) subset connected:
        the last vertex reached by a DFS spanning tree."""
        ordered = sorted(chosen, key=lambda s: s.sorted())
        start = ordered[0]
        seen = {start}
        stack = [start]
        last = start
        while stack:
            node = stack.pop()
            last = node
            for other in ordered:
                if other not in seen and node & other:
                    seen.add(other)
                    stack.append(other)
        return last

    def evaluate(self) -> Relation:
        """``R_D``: the natural join of all relation states."""
        return self.join_of(None)

    # -- the tau-only path --------------------------------------------------------

    def tau_of(self, subset: Optional[Iterable[AttrsLike]] = None) -> int:
        """``tau(R_E)``: the tuple count of the subset join.

        Served without materializing the join whenever possible: a cached
        full result or cached count answers immediately; otherwise
        connected acyclic subsets are counted by
        :func:`~repro.yannakakis.join.yannakakis_count` on the subset
        index's join tree, on every engine,
        and on the multiway engines proper cyclic subsets by Generic
        Join's counting mode (see the module docstring).  Only ``R_D``
        itself, and cyclic subsets on the vector engine, fall back to
        ``len(join_of(...))``.
        """
        chosen = self._resolve_subset(subset)
        cached = self._join_cache.get(chosen)
        if cached is not None:
            self._join_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return len(cached)
        tau = self._tau_cache.get(chosen)
        if tau is not None:
            self._tau_hits += 1
            if _METRICS.enabled:
                _CACHE_HITS.inc()
            return tau
        self._computed += 1
        if _TRACER.enabled:
            with _TRACER.span(
                "db.join", relations=len(chosen), mode="count"
            ) as span:
                tau = self._count_join(chosen)
                span.set_attribute("tau", tau)
            _CACHE_MISSES.inc()
        else:
            tau = self._count_join(chosen)
        self._tau_cache.put(chosen, tau)
        return tau

    def _count_join(self, chosen: SubsetKey) -> int:
        """Count ``tau(R_E)`` without materializing when the shape allows."""
        if len(chosen) == 1:
            (only,) = chosen
            return len(self._relations[only])
        index = self._scheme.subset_index()
        mask = index.mask_of(chosen)
        components = index.components(mask)
        if len(components) > 1:
            # The join of an unconnected subset is the Cartesian product of
            # its components' joins, so tau multiplies.
            tau = 1
            for component in components:
                tau *= self._component_tau(index, component)
                if tau == 0:
                    return 0
            return tau
        return self._component_tau(index, mask, chosen)

    def _component_tau(
        self, index: SubsetIndex, mask: int, chosen: Optional[SubsetKey] = None
    ) -> int:
        """tau of the connected subset ``mask``: from the caches, from
        :func:`~repro.yannakakis.join.yannakakis_count` on the index's
        join tree (an acyclic subset of two or more relations, on every
        engine; its tables go in sorted-scheme order), from
        :func:`~repro.wcoj.join.generic_count` (a proper cyclic subset
        on the ``"wcoj"``/``"yannakakis"`` engines, cached as a count
        only), or else the memoized join's length.  ``chosen`` is the
        subset's cache key when :meth:`tau_of` has just missed on it; a
        component of an unconnected subset consults the caches first."""
        members = index.members(mask)
        if chosen is None:
            chosen = frozenset(members)
            cached = self._join_cache.get(chosen)
            if cached is not None:
                return len(cached)
            tau = self._tau_cache.get(chosen)
            if tau is not None:
                return tau
        if len(members) == 1:
            return len(self._relations[members[0]])
        tree = index.join_tree(mask)
        if tree is not None:
            tau = yannakakis_count(
                [self._relations[s]._table() for s in members], tree=tree
            )
        else:
            # Cyclic connected subset: no join tree.  On the multiway
            # engines Generic Join counts a proper subset; R_D itself is
            # materialized for Plan.execute to read back, and so is every
            # cyclic subset on the vector engine.
            tau = None
            if mask != index.full:
                tau = self._multiway_join(chosen, count=True)
            if tau is None:
                return len(self._join_memo(chosen))
        self._tau_cache.put(chosen, tau)
        return tau

    def is_nonnull(self) -> bool:
        """The paper's standing hypothesis ``R_D ≠ ∅``."""
        return self.tau_of(None) > 0

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
