"""Randomized counterexample search for the paper's open problems.

Section 4, after Example 4: "For any connected database of three or four
relations, one can show that C1 alone suffices to ensure that there is a
tau-optimum strategy that does not use Cartesian products.  We believe
that this is not so for larger databases, that is, C2 is necessary in
Theorem 2 ... However, a combinatorial explosion makes it very difficult
to construct a counterexample to prove this point."

This module makes that search mechanical:

* :func:`verify_small_connected_c1_suffices` checks the paper's |D| <= 4
  claim exhaustively over sampled databases;
* :func:`search_c2_necessity` hunts for the missing counterexample -- a
  *connected* database of five or more relations satisfying C1 on which
  every Cartesian-product-free strategy is strictly suboptimal -- and
  reports the outcome either way.

A found counterexample would settle the paper's conjecture positively;
"none found after N samples" is the honest negative report (the E-C2NEC
benchmark records it).

Each sampled seed seeds its own ``random.Random``, so a seed's database,
condition checks and optimizations do not depend on the other seeds.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.conditions.checks import check_c1, check_c2
from repro.database import Database
from repro.optimizer.dp import optimize_dp
from repro.optimizer.spaces import SearchSpace
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    generate_database,
    random_tree_scheme,
    star_scheme,
)

__all__ = [
    "SearchOutcome",
    "search_c2_necessity",
    "verify_small_connected_c1_suffices",
]


class SearchOutcome:
    """The result of one randomized search campaign."""

    __slots__ = ("samples", "eligible", "counterexample", "seed")

    def __init__(
        self,
        samples: int,
        eligible: int,
        counterexample: Optional[Database],
        seed: Optional[int],
    ):
        self.samples = samples
        self.eligible = eligible
        self.counterexample = counterexample
        self.seed = seed

    @property
    def found(self) -> bool:
        """True when a counterexample was found."""
        return self.counterexample is not None

    def __repr__(self) -> str:
        verdict = f"counterexample at seed {self.seed}" if self.found else "none found"
        return (
            f"<SearchOutcome {verdict}; {self.eligible} eligible of "
            f"{self.samples} samples>"
        )


def _default_generator(seed: int) -> Database:
    """Mixed small connected databases of 5 relations."""
    rng = random.Random(seed)
    pick = seed % 3
    if pick == 0:
        shape = chain_scheme(5)
    elif pick == 1:
        shape = star_scheme(5)
    else:
        shape = random_tree_scheme(5, rng)
    return generate_database(shape, rng, WorkloadSpec(size=6, domain=3))


def _small_db(seed: int, relations: int) -> Database:
    rng = random.Random(10_000 + seed)
    shape = chain_scheme(relations) if seed % 2 == 0 else star_scheme(relations)
    return generate_database(shape, rng, WorkloadSpec(size=6, domain=3))


def _eligible(db: Database) -> bool:
    """Connected, ``R_D`` nonempty, and C1 holds."""
    return db.scheme.is_connected() and db.is_nonnull() and bool(check_c1(db).holds)


def _nocp_misses(db: Database) -> bool:
    """True when no CP-free strategy reaches the tau-optimum."""
    best = optimize_dp(db, SearchSpace.ALL).cost
    return optimize_dp(db, SearchSpace.NOCP).cost > best


def search_c2_necessity(
    samples: int = 100,
    generator: Callable[[int], Database] = _default_generator,
    require_c2_failure: bool = True,
) -> SearchOutcome:
    """Hunt for a connected C1 database where the CP-free subspace misses
    the optimum (the paper's conjectured-but-unconstructed witness).

    ``require_c2_failure`` restricts the hunt to databases violating C2
    (where the paper's conjecture lives; with C2 a miss would contradict
    Theorem 2 -- finding one there would mean a library bug, and the
    harness raises in that case).
    """
    eligible = 0
    for seed in range(samples):
        db = generator(seed)
        if not _eligible(db):
            continue
        c2 = check_c2(db).holds
        if require_c2_failure and c2:
            continue
        eligible += 1
        if _nocp_misses(db):
            if c2:
                raise AssertionError(
                    "CP-free subspace missed the optimum under C1 and C2 -- "
                    "this contradicts Theorem 2 and indicates a library bug "
                    f"(seed {seed})"
                )
            return SearchOutcome(samples, eligible, db, seed)
    return SearchOutcome(samples, eligible, None, None)


def verify_small_connected_c1_suffices(
    samples: int = 100, relations: int = 4
) -> SearchOutcome:
    """Check the paper's |D| <= 4 claim on sampled connected C1 databases:
    C1 alone ensures a CP-free tau-optimum.  Returns an outcome whose
    ``found`` flag would mark a violation (never observed; the claim is a
    theorem the paper states without proof)."""
    if relations > 4:
        raise ValueError("the paper's claim is for at most four relations")
    eligible = 0
    for seed in range(samples):
        db = _small_db(seed, relations)
        if not _eligible(db):
            continue
        eligible += 1
        if _nocp_misses(db):
            return SearchOutcome(samples, eligible, db, seed)
    return SearchOutcome(samples, eligible, None, None)
