"""The four seeded database pools the end-to-end benchmark cycles.

Every pool member is built through the ``repro.workloads`` generators and
handed to the measured operation as a plain tuple of relations: the
program under test receives only the generated inputs, never the
generator's ``Database``.  Random states are drawn once per member, and
``--seed`` renames their values (:class:`RenamedSpec`); the other
members are deterministic by construction.  Two seeds therefore give the
program different values to join but the same work.

Pool sizes are odd: with every member taking its own latency band, the
p50 and p95 of the latency samples each fall inside one member's block
of samples instead of on the boundary between two, which is what lets
those percentiles repeat from run to run.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.relational.relation import Relation
from repro.workloads import generators as gen
from repro.workloads import paper

__all__ = ["GROUND_TRUTH", "Member", "WORKLOADS", "Workload", "build_pool"]


class Member(NamedTuple):
    """One pool entry: a label for reports and the generated relations."""

    label: str
    relations: Tuple[Relation, ...]


class Workload(NamedTuple):
    """A named pool and the operation run on each of its members.

    ``kind`` is ``"join"`` (optimize, then execute the plan) or
    ``"safety"`` (optimize, explain, then the paper's safety report --
    the ``repro optimize`` path).  Why each workload was chosen is in
    ``BENCHMARK.json``.
    """

    kind: str
    members: Callable[[int], List[Member]]


#: The paper's published optimum tau for the examples that state one.
GROUND_TRUTH: Dict[str, int] = {"example1": 546, "example4": 11}


def _rng(workload: str, label: str, seed) -> random.Random:
    # A string seed is hashed with SHA-512, so every member's stream is
    # independent of the others and of PYTHONHASHSEED.
    return random.Random(f"{workload}/{label}/{seed}")


def _tree(workload: str, label: str, n: int):
    """A random tree scheme drawn once per member, not per seed: the
    tree's shape sets how many subsets the DP and the counter visit, so
    a per-seed shape would turn seed changes into workload changes."""
    return gen.random_tree_scheme(n, _rng(workload, label, "shape"))


class RenamedSpec(gen.WorkloadSpec):
    """Uniform values over ``1..domain``, renamed by a seeded bijection.

    A bijection of the values keeps every join's size, so the seed
    changes the values the program sees but not the work it does: plan
    tau repeats exactly across seeds, and the spread of the timings
    across seeds is the host's and the program's, not the draw's.
    """

    __slots__ = ("_names",)

    def __init__(self, size: int, domain: int, names: random.Random):
        super().__init__(size=size, domain=domain)
        self._names = names.sample(range(1, domain + 1), domain)

    def draw_value(self, rng: random.Random) -> int:
        return self._names[super().draw_value(rng) - 1]


def _uniform(workload, label, seed, schemes, size, domain) -> Member:
    """Uniform states drawn once per member, with values renamed by the
    seed."""
    db = gen.generate_database(
        schemes,
        _rng(workload, label, "data"),
        RenamedSpec(size, domain, _rng(workload, label, seed)),
    )
    return Member(label, db.relations())


def _acyclic_join(seed: int) -> List[Member]:
    w = "acyclic_join"
    # Drawn once: the generator takes no value distribution to rename.
    fk_chain = gen.generate_foreign_key_chain(
        8, _rng(w, "fk_chain8", "data"), size=2000
    )
    # Listed in latency order, but for tree6, which is a little faster
    # than chain5.  The median member, star4, takes 1.8 times as long as
    # any faster member and 1/1.2 of any slower one; the slowest, the FK
    # chain, takes 1.7 times as long as any other.  These gaps keep p50
    # and p95 each inside one member's block.
    return [
        Member("selective_star4", gen.generate_selective_star(4, 101).relations()),
        _uniform(w, "chain5", seed, gen.chain_scheme(5), 1000, 400),
        _uniform(w, "tree6", seed, _tree(w, "tree6", 6), 400, 200),
        _uniform(w, "star4", seed, gen.star_scheme(4), 2000, 500),
        _uniform(w, "star5", seed, gen.star_scheme(5), 2000, 900),
        _uniform(w, "chain6", seed, gen.chain_scheme(6), 600, 200),
        Member("fk_chain8", fk_chain.relations()),
    ]


def _cyclic_join(seed: int) -> List[Member]:
    w = "cyclic_join"
    # The median member is the deterministic 1400-tuple spiked triangle.
    # It takes 1.7 times as long as any faster member, and the slowest,
    # clique4, twice as long as any other: the host's slow spells run
    # everything up to 1.7 times slower, and these gaps keep p50 and p95
    # inside their members' blocks even then.
    # Spikes stay small enough for the vector-engine reference, whose
    # binary plans materialize a quadratic intermediate on them.
    return [
        Member("spiked_triangle200", gen.generate_spiked_cycle(3, 200).relations()),
        _uniform(w, "cycle3", seed, gen.cycle_scheme(3), 600, 60),
        _uniform(w, "cycle4", seed, gen.cycle_scheme(4), 150, 20),
        Member("spiked_triangle1400", gen.generate_spiked_cycle(3, 1400).relations()),
        _uniform(w, "cycle5", seed, gen.cycle_scheme(5), 150, 15),
        _uniform(w, "clique5", seed, gen.clique_scheme(5), 35, 4),
        _uniform(w, "clique4", seed, gen.clique_scheme(4), 250, 6),
    ]


def _wide_plan(seed: int) -> List[Member]:
    w = "wide_plan"
    # Listed in latency order.  The median member, tree9b, takes 1.7
    # times as long as any faster member and 1/1.2 of any slower one;
    # star9 takes 1.6 times as long as any other.  A pass lasts about
    # 0.8 s, so a 28 s run has about 300 latency samples.
    return [
        _uniform(w, "chain7", seed, gen.chain_scheme(7), 60, 60),
        _uniform(w, "tree7", seed, _tree(w, "tree7", 7), 60, 60),
        _uniform(w, "chain8", seed, gen.chain_scheme(8), 60, 60),
        _uniform(w, "tree8f", seed, _tree(w, "tree8f", 8), 60, 60),
        _uniform(w, "tree9b", seed, _tree(w, "tree9b", 9), 60, 60),
        _uniform(w, "tree9e", seed, _tree(w, "tree9e", 9), 60, 60),
        _uniform(w, "tree9h", seed, _tree(w, "tree9h", 9), 60, 60),
        _uniform(w, "tree9c", seed, _tree(w, "tree9c", 9), 60, 60),
        _uniform(w, "star9", seed, gen.star_scheme(9), 60, 60),
    ]


#: The ``repro optimize`` defaults (``--size 20 --domain 6``) over the
#: CLI's shapes; the relation counts vary so the condition sweeps do too.
#: With star3 below it, Example 5 is the median member; clique5 takes
#: three times as long as any other member.
_CLI_SHAPES = (
    ("star", 3), ("cycle", 4), ("chain", 5), ("star", 5),
    ("clique", 4), ("chain", 6), ("clique", 5),
)


def _safety_report(seed: int) -> List[Member]:
    w = "safety_report"
    members = [
        Member("example1", paper.example1().relations()),
        Member("example2_c1_only", paper.example2_c1_only().relations()),
        Member("example2_c2_only", paper.example2_c2_only().relations()),
        Member("example3", paper.example3().relations()),
        Member("example4", paper.example4().relations()),
        Member("example5", paper.example5().relations()),
    ]
    for shape, n in _CLI_SHAPES:
        members.append(_uniform(w, f"{shape}{n}", seed, gen.SHAPES[shape](n), 20, 6))
    return members


WORKLOADS: Dict[str, Workload] = {
    "acyclic_join": Workload("join", _acyclic_join),
    "cyclic_join": Workload("join", _cyclic_join),
    "wide_plan": Workload("join", _wide_plan),
    "safety_report": Workload("safety", _safety_report),
}


def build_pool(name: str, seed: int) -> List[Member]:
    """The seeded pool of workload ``name``."""
    return WORKLOADS[name].members(seed)
