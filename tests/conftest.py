"""Shared fixtures: the paper's databases and small hand-built ones."""

import random

import pytest

from repro import Database, relation
from repro.workloads.paper import (
    example1,
    example2_c2_only,
    example3,
    example4,
    example5,
)


@pytest.fixture
def ex1():
    """Example 1: C1 holds, the optimum uses a Cartesian product."""
    return example1()


@pytest.fixture
def ex2():
    """Example 2 (second half): C2 holds, C1 fails."""
    return example2_c2_only()


@pytest.fixture
def ex3():
    """Example 3: all strategies tie; C1 without C1'."""
    return example3()


@pytest.fixture
def ex4():
    """Example 4: C2 without C1; the optimum uses a Cartesian product."""
    return example4()


@pytest.fixture
def ex5():
    """Example 5: C1 and C2 without C3; the unique optimum is bushy."""
    return example5()


@pytest.fixture
def chain3():
    """A tiny 3-relation chain AB-BC-CD with easy-to-trace counts."""
    return Database(
        [
            relation("AB", [(1, 1), (2, 1), (3, 2)], name="R1"),
            relation("BC", [(1, 5), (1, 6), (2, 7)], name="R2"),
            relation("CD", [(5, 0), (7, 0), (8, 0)], name="R3"),
        ]
    )


@pytest.fixture
def disconnected_db():
    """Two components: {AB, BC} and {DE} (the paper's running shape)."""
    return Database(
        [
            relation("AB", [(1, 1), (2, 1)], name="R1"),
            relation("BC", [(1, 5), (1, 6)], name="R2"),
            relation("DE", [(0, 0), (1, 1)], name="R3"),
        ]
    )


@pytest.fixture
def rng():
    """A seeded RNG for deterministic randomized tests."""
    return random.Random(20260704)
