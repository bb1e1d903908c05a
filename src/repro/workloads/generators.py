"""Synthetic database generators for the empirical benchmarks.

The paper's necessity examples are hand-built; its broader claims ("for
large queries, the cheapest linear strategy could be significantly more
expensive than the cheapest possible strategy", the GAMMA observation)
need populations of databases.  This module generates them:

* scheme shapes -- :func:`chain_scheme`, :func:`star_scheme`,
  :func:`cycle_scheme`, :func:`clique_scheme`, :func:`random_tree_scheme`;
* :func:`generate_database` -- random states over any scheme, with
  per-relation sizes, per-attribute domain sizes, and optional zipf skew;
* :func:`generate_superkey_join_database` -- states in which every
  pairwise join is on a superkey of both sides (Section 4's semantic
  hypothesis for C3), built from per-attribute value permutations;
* :func:`generate_consistent_acyclic_database` -- gamma-acyclic schemes
  with pairwise-consistent states (Section 5's hypothesis for C4),
  obtained by fully reducing random chain/star data;
* :func:`generate_until` -- rejection sampling against a predicate (used
  to harvest populations satisfying C1' or C1∧C2).

All generators take an explicit :class:`random.Random` seed, never the
global RNG, so every benchmark row is reproducible.  States are built
through :meth:`Relation.from_tuples`, which encodes straight into the
columnar kernel layout (docs/performance.md) -- no ``Row`` objects are
created during generation.  The RNG draw order is part of each
generator's contract (one draw per attribute in sorted-scheme order), so
seeded databases are identical across engine versions.
"""

from __future__ import annotations

import random
import string
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.database import Database
from repro.errors import ReproError
from repro.relational.attributes import AttributeSet
from repro.relational.relation import Relation
from repro.schemegraph.consistency import full_reduce

__all__ = [
    "SHAPES",
    "WorkloadSpec",
    "chain_scheme",
    "star_scheme",
    "cycle_scheme",
    "clique_scheme",
    "random_tree_scheme",
    "generate_database",
    "generate_selective_star",
    "generate_spiked_cycle",
    "generate_superkey_join_database",
    "generate_consistent_acyclic_database",
    "generate_until",
]

T = TypeVar("T")


def _attr_name(index: int) -> str:
    """Attribute names A, B, ..., Z, A1, B1, ... -- single letters first so
    small schemes print in the paper's compact style."""
    letters = string.ascii_uppercase
    if index < len(letters):
        return letters[index]
    return f"{letters[index % len(letters)]}{index // len(letters)}"


def chain_scheme(n: int) -> List[AttributeSet]:
    """A chain of ``n`` relations: R_i over ``{A_i, A_i+1}``.

    Chains are gamma-acyclic and every nontrivial split of a proper
    connected subset is a potential Cartesian product -- the classic
    join-ordering shape.
    """
    if n < 1:
        raise ReproError("a chain needs at least one relation")
    return [AttributeSet([_attr_name(i), _attr_name(i + 1)]) for i in range(n)]


def star_scheme(n: int) -> List[AttributeSet]:
    """A star of ``n`` relations: a hub over ``{A_1..A_n-1}`` plus
    satellites ``{A_i, B_i}`` (a fact table with dimensions)."""
    if n < 2:
        raise ReproError("a star needs at least two relations")
    hub = AttributeSet([_attr_name(i) for i in range(n - 1)])
    satellites = [
        AttributeSet([_attr_name(i), _attr_name(n - 1 + i + 1)]) for i in range(n - 1)
    ]
    return [hub] + satellites


def cycle_scheme(n: int) -> List[AttributeSet]:
    """A cycle of ``n`` relations (not alpha-acyclic for ``n >= 3``)."""
    if n < 3:
        raise ReproError("a cycle needs at least three relations")
    schemes = [AttributeSet([_attr_name(i), _attr_name(i + 1)]) for i in range(n - 1)]
    schemes.append(AttributeSet([_attr_name(n - 1), _attr_name(0)]))
    return schemes


def clique_scheme(n: int) -> List[AttributeSet]:
    """A clique of ``n`` relations: R_i and R_j share attribute ``A_ij``."""
    if n < 2:
        raise ReproError("a clique needs at least two relations")
    pair_attr: Dict[Tuple[int, int], str] = {}
    counter = 0
    for i in range(n):
        for j in range(i + 1, n):
            pair_attr[(i, j)] = _attr_name(counter)
            counter += 1
    schemes = []
    for i in range(n):
        members = [
            pair_attr[(min(i, j), max(i, j))] for j in range(n) if j != i
        ]
        schemes.append(AttributeSet(members))
    return schemes


def random_tree_scheme(n: int, rng: random.Random) -> List[AttributeSet]:
    """A random tree-shaped scheme: relation ``i > 0`` shares one fresh
    attribute with a uniformly chosen earlier relation (always
    gamma-acyclic and connected)."""
    if n < 1:
        raise ReproError("a tree needs at least one relation")
    # own[i] is the private attribute of relation i; link[i] joins i to its
    # parent.
    schemes: List[set] = [{_attr_name(0)}]
    next_attr = 1
    for i in range(1, n):
        parent = rng.randrange(i)
        link = _attr_name(next_attr)
        next_attr += 1
        own = _attr_name(next_attr)
        next_attr += 1
        schemes[parent].add(link)
        schemes.append({link, own})
    return [AttributeSet(s) for s in schemes]


#: The named scheme shapes a :class:`WorkloadSpec` can carry (the
#: seedless generators; ``random_tree_scheme`` needs its own RNG and is
#: excluded).  The CLI's ``--shape`` choices come from here.
SHAPES: Dict[str, Callable[[int], List[AttributeSet]]] = {
    "chain": chain_scheme,
    "star": star_scheme,
    "cycle": cycle_scheme,
    "clique": clique_scheme,
}


class WorkloadSpec:
    """One synthetic workload: scheme shape plus state-generation
    parameters.

    The state half: ``size`` tuples are drawn per relation; each
    attribute value is drawn from ``1..domain`` either uniformly or
    zipf-skewed with exponent ``skew`` (0 = uniform).  Duplicate draws
    collapse under set semantics, so relations may come out slightly
    smaller than ``size``.

    The scheme half is optional: with ``shape`` (a :data:`SHAPES` name),
    ``relations``, and ``seed`` set, the spec describes a *complete*
    workload and :meth:`build` generates the database.  This is the one
    record the CLI, the benchmarks, and
    :meth:`~repro.obs.profile.RunReport.capture` share --
    :meth:`from_args` lifts parsed CLI flags into a spec and
    :meth:`to_dict` is the JSON image profile exports embed.
    """

    __slots__ = ("size", "domain", "skew", "shape", "relations", "seed")

    def __init__(
        self,
        size: int = 30,
        domain: int = 10,
        skew: float = 0.0,
        shape: Optional[str] = None,
        relations: Optional[int] = None,
        seed: int = 0,
    ):
        if size < 1 or domain < 1:
            raise ReproError("size and domain must be positive")
        if skew < 0:
            raise ReproError("skew must be nonnegative")
        if shape is not None and shape not in SHAPES:
            raise ReproError(
                f"unknown workload shape {shape!r}; expected one of {sorted(SHAPES)}"
            )
        if shape is not None and relations is None:
            raise ReproError("a shaped workload needs relations=")
        self.size = size
        self.domain = domain
        self.skew = skew
        self.shape = shape
        self.relations = relations
        self.seed = seed

    @classmethod
    def from_args(cls, args) -> "WorkloadSpec":
        """Lift the CLI's shared workload flags (``--shape``,
        ``--relations``, ``--seed``, ``--size``, ``--domain``,
        ``--skew``) out of a parsed namespace."""
        return cls(
            size=args.size,
            domain=args.domain,
            skew=args.skew,
            shape=args.shape,
            relations=args.relations,
            seed=args.seed,
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready image (embedded in profile exports)."""
        out: Dict[str, object] = {
            "size": self.size,
            "domain": self.domain,
            "skew": self.skew,
        }
        if self.shape is not None:
            out["shape"] = self.shape
            out["relations"] = self.relations
            out["seed"] = self.seed
        return out

    def build(self) -> Database:
        """Generate the described database (requires the scheme half:
        ``shape`` and ``relations``)."""
        if self.shape is None:
            raise ReproError(
                "WorkloadSpec.build() needs shape= and relations= "
                "(this spec only describes relation states)"
            )
        rng = random.Random(self.seed)
        schemes = SHAPES[self.shape](self.relations)
        return generate_database(schemes, rng, self)

    def draw_value(self, rng: random.Random) -> int:
        """One attribute value under the spec's distribution."""
        if self.skew == 0.0:
            return rng.randint(1, self.domain)
        # Zipf via inverse-CDF over the finite domain.
        weights = [1.0 / (rank ** self.skew) for rank in range(1, self.domain + 1)]
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for value, weight in enumerate(weights, start=1):
            acc += weight
            if point <= acc:
                return value
        return self.domain

    def __repr__(self) -> str:
        scheme = (
            f", shape={self.shape!r}, relations={self.relations}, seed={self.seed}"
            if self.shape is not None
            else ""
        )
        return (
            f"WorkloadSpec(size={self.size}, domain={self.domain}, "
            f"skew={self.skew}{scheme})"
        )


def generate_database(
    schemes: Sequence[AttributeSet],
    rng: random.Random,
    spec: Optional[WorkloadSpec] = None,
    per_relation: Optional[Dict[AttributeSet, WorkloadSpec]] = None,
) -> Database:
    """Random states over ``schemes``.

    ``spec`` sets the default parameters; ``per_relation`` overrides them
    for specific schemes (e.g. a big skewed hub with small uniform
    satellites).
    """
    default = spec if spec is not None else WorkloadSpec()
    relations = []
    for index, scheme in enumerate(schemes):
        chosen = (per_relation or {}).get(scheme, default)
        order = scheme.sorted()
        tuples = (
            tuple(chosen.draw_value(rng) for _ in order)
            for _ in range(chosen.size)
        )
        relations.append(
            Relation.from_tuples(scheme, tuples, order=order, name=f"R{index + 1}")
        )
    return Database(relations)


def generate_spiked_cycle(n: int, size: int) -> Database:
    """The adversarial cyclic instance behind the AGM separation.

    Over the ``n``-cycle scheme, each relation's state is the "spike"::

        {(0, 0)}  ∪  {(j, 0) : 1 <= j <= m}  ∪  {(0, j) : 1 <= j <= m}

    with ``m = (size - 1) // 2``, so every relation holds ``2m + 1``
    tuples.  A cycle tuple needs a zero in every adjacent pair, so the
    surviving bindings are exactly the *independent sets* of nonzero
    coordinates.  On the triangle no two coordinates are nonadjacent, so
    the output is tiny (``1 + 3m``) while *every* first binary step pays
    quadratically: joining adjacent relations matches the two full
    spikes through the hub value 0 (``~m**2`` intermediate tuples), and
    non-adjacent relations share nothing, so their step is an outright
    Cartesian product.  Generic Join does ``O(n*m)`` work there -- this
    is the standard AGM lower-bound family, deterministic by
    construction.  For ``n >= 4`` opposite coordinates *can* both be
    nonzero, so the output itself grows to ``Θ(m**2)`` and binary
    intermediates are output-sized -- even cycles show no separation
    (see ``benchmarks/bench_wcoj.py``).
    """
    if n < 3:
        raise ReproError("a spiked cycle needs at least three relations")
    if size < 3:
        raise ReproError("a spiked cycle needs size >= 3")
    m = (size - 1) // 2
    spike = [(0, 0)]
    spike += [(j, 0) for j in range(1, m + 1)]
    spike += [(0, j) for j in range(1, m + 1)]
    relations = []
    for index, scheme in enumerate(cycle_scheme(n)):
        first, second = _attr_name(index), _attr_name((index + 1) % n)
        relations.append(
            Relation.from_tuples(
                scheme, spike, order=(first, second), name=f"R{index + 1}"
            )
        )
    return Database(relations)


def generate_selective_star(n: int, size: int) -> Database:
    """The adversarial *acyclic* instance behind the Yannakakis separation.

    Over the ``n``-relation star scheme (hub over ``{A_0..A_{n-2}}``,
    satellites ``{A_i, B_i}``), with ``m = size - 1``:

    * the hub holds, for each block ``i``, the ``m`` rows with
      ``A_i = v`` (``v = 1..m``) and every other coordinate ``0``, plus
      one *survivor* row with every coordinate ``m + 1``;
    * satellite ``i`` holds ``{(0, j) : j = 1..m}`` plus the survivor
      match ``(m + 1, m + 1)``.

    Every block-``i`` hub row dies at satellite ``i`` (its ``A_i`` value
    appears in no satellite row), so the full join is exactly **one**
    tuple -- but the death is only visible at satellite ``i``.  Joining
    the hub with any *single* satellite ``j`` first fans every other
    block's rows out by ``m`` (they all carry ``A_j = 0``, matching all
    ``m`` satellite rows): a ``Θ((n-2)·m²)`` intermediate.  Satellite
    pairs are attribute-disjoint, so starting there is an outright
    ``Θ(m²)`` Cartesian product.  *Every* binary order pays quadratically
    while the Yannakakis full reducer shrinks the hub to the survivor row
    with ``O(n·m)`` semijoin work and joins single-row states --
    the acyclic mirror of :func:`generate_spiked_cycle`, deterministic
    by construction (see ``benchmarks/bench_yannakakis.py``).
    """
    if n < 3:
        raise ReproError("a selective star needs at least three relations")
    if size < 2:
        raise ReproError("a selective star needs size >= 2")
    m = size - 1
    schemes = star_scheme(n)
    hub_scheme, satellite_schemes = schemes[0], schemes[1:]
    hub_order = hub_scheme.sorted()
    blocks = len(satellite_schemes)
    hub_rows = []
    for block in range(blocks):
        attr = _attr_name(block)
        position = hub_order.index(attr)
        for v in range(1, m + 1):
            row = [0] * blocks
            row[position] = v
            hub_rows.append(tuple(row))
    hub_rows.append((m + 1,) * blocks)
    relations = [
        Relation.from_tuples(hub_scheme, hub_rows, order=hub_order, name="Hub")
    ]
    for block, scheme in enumerate(satellite_schemes):
        rows = [(0, j) for j in range(1, m + 1)] + [(m + 1, m + 1)]
        relations.append(
            Relation.from_tuples(
                scheme,
                rows,
                order=(_attr_name(block), _attr_name(n + block)),
                name=f"S{block + 1}",
            )
        )
    return Database(relations)


def generate_superkey_join_database(
    schemes: Sequence[AttributeSet],
    rng: random.Random,
    size: int = 12,
) -> Database:
    """States in which every pairwise join is on a superkey of both sides.

    Construction: fix one global set of ``size`` entity ids; in every
    relation, each attribute's column is a permutation of those ids.  Then
    every single attribute -- hence every nonempty shared attribute set --
    is a key of every relation containing it, which is exactly Section 4's
    hypothesis for C3.
    """
    if size < 1:
        raise ReproError("size must be positive")
    ids = list(range(1, size + 1))
    relations = []
    for index, scheme in enumerate(schemes):
        order = scheme.sorted()
        columns = []
        for _ in order:
            column = ids[:]
            rng.shuffle(column)
            columns.append(column)
        relations.append(
            Relation.from_tuples(
                scheme, zip(*columns), order=order, name=f"R{index + 1}"
            )
        )
    return Database(relations)


def generate_foreign_key_chain(
    n: int,
    rng: random.Random,
    size: int = 10,
) -> Database:
    """A chain where every shared attribute is a key of the *deeper* side
    (the classic foreign-key pattern: R_i.A_{i+1} references R_{i+1}).

    In relation ``R_i`` over ``{A_i, A_i+1}`` (for ``i >= 2``) the column
    ``A_i`` is unique, so each tuple of ``R_i-1`` matches at most one
    tuple of ``R_i`` and every left-to-right join shrinks (or preserves)
    the left side.  Such databases satisfy C2 by construction and usually
    C1 as well -- the population used by the Theorem 2 benchmark.
    """
    if n < 1:
        raise ReproError("a chain needs at least one relation")
    schemes = chain_scheme(n)
    ids = list(range(1, size + 1))
    relations = []
    for index, scheme in enumerate(schemes):
        left_attr, right_attr = sorted(scheme)
        if index == 0:
            left_column = [rng.choice(ids) for _ in range(size)]
        else:
            # Key side: each id exactly once.
            left_column = ids[:]
            rng.shuffle(left_column)
        right_column = [rng.choice(ids) for _ in range(size)]
        relations.append(
            Relation.from_tuples(
                scheme,
                zip(left_column, right_column),
                order=(left_attr, right_attr),
                name=f"R{index + 1}",
            )
        )
    return Database(relations)


def generate_correlated_chain(
    n: int,
    rng: random.Random,
    size: int = 30,
    domain: int = 10,
    correlation: float = 0.8,
) -> Database:
    """A chain whose columns are *correlated* within each relation.

    With probability ``correlation`` a tuple's two attribute values are
    equal; otherwise independent.  Correlated columns are exactly what
    breaks the classical uniformity/independence estimator the paper
    criticizes -- the benchmark feeds these databases to the
    estimate-driven optimizer and measures its regret.
    """
    if not 0.0 <= correlation <= 1.0:
        raise ReproError("correlation must be within [0, 1]")
    schemes = chain_scheme(n)
    relations = []
    for index, scheme in enumerate(schemes):
        left_attr, right_attr = sorted(scheme)
        tuples = set()
        for _ in range(size):
            left = rng.randint(1, domain)
            if rng.random() < correlation:
                right = left
            else:
                right = rng.randint(1, domain)
            tuples.add((left, right))
        relations.append(
            Relation.from_tuples(
                scheme, tuples, order=(left_attr, right_attr), name=f"R{index + 1}"
            )
        )
    return Database(relations)


def generate_consistent_acyclic_database(
    n: int,
    rng: random.Random,
    shape: str = "chain",
    spec: Optional[WorkloadSpec] = None,
) -> Database:
    """A gamma-acyclic, pairwise-consistent database (Section 5's
    hypothesis for C4).

    Generates random states over a chain or star scheme (both
    gamma-acyclic) and applies the Bernstein–Chiu full reducer; for
    acyclic schemes the reduced database is globally consistent.  The
    result is guaranteed nonempty (regenerated until ``R_D ≠ ∅``).
    """
    if shape == "chain":
        schemes = chain_scheme(n)
    elif shape == "star":
        schemes = star_scheme(n)
    else:
        raise ReproError(f"unsupported acyclic shape {shape!r}")
    # Small domains make a nonempty final join overwhelmingly likely.
    chosen = spec if spec is not None else WorkloadSpec(size=20, domain=4)
    for _ in range(100):
        db = generate_database(schemes, rng, spec=chosen)
        reduced = full_reduce(db)
        if all(len(rel) > 0 for rel in reduced.relations()) and reduced.is_nonnull():
            return reduced
    raise ReproError(
        "could not generate a nonempty consistent acyclic database; "
        "increase sizes or shrink domains"
    )


def generate_until(
    make: Callable[[random.Random], T],
    accept: Callable[[T], bool],
    rng: random.Random,
    max_tries: int = 500,
) -> Tuple[T, int]:
    """Rejection-sample ``make(rng)`` until ``accept`` passes.

    Returns ``(value, tries)`` so benchmark tables can report acceptance
    rates.  Raises :class:`~repro.errors.ReproError` after ``max_tries``.
    """
    for attempt in range(1, max_tries + 1):
        candidate = make(rng)
        if accept(candidate):
            return candidate, attempt
    raise ReproError(f"no accepted sample in {max_tries} tries")
