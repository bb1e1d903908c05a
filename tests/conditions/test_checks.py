"""Tests for the C1/C1'/C2/C3/C4 decision procedures, pinned to the
paper's own example databases.

``condition_pins.json`` holds every report of the five conditions on
Examples 1-5 and on the ``WorkloadSpec(size=20, domain=6)`` databases
(seed 0) of the shapes the ``safety_report`` benchmark pool uses, as
2.3.0's frozenset-based checkers returned them: verdict, instance count
and witnesses in order, with all witnesses and stopping at the first,
plus the verdict, ``TimedOut.units_examined`` and ``units_spent`` under
budgets of 1, 2, 5 and 17 units.  They catch drift in the sweep order,
which would reorder witnesses and move where a check stops.
"""

import json
import pathlib

import pytest

from repro import Database, relation
from repro.conditions.checks import (
    check_c1,
    check_c1_strict,
    check_c2,
    check_c3,
    check_c4,
    check_condition,
)
from repro.errors import ReproError
from repro.runtime import Runtime
from repro.workloads import paper
from repro.workloads.generators import WorkloadSpec

_PINS = json.loads(
    (pathlib.Path(__file__).parent / "condition_pins.json").read_text(encoding="utf-8")
)

#: The CLI shapes of the safety_report pool, as (shape, relations).
_POOL_SHAPES = (
    ("star", 3), ("cycle", 4), ("chain", 5), ("star", 5),
    ("clique", 4), ("chain", 6), ("clique", 5),
)


def _pinned_database(name):
    for shape, n in _POOL_SHAPES:
        if name == f"{shape}{n}":
            return WorkloadSpec(
                size=20, domain=6, shape=shape, relations=n, seed=0
            ).build()
    return getattr(paper, name)()


def _rendered(report):
    return [
        report.holds,
        report.instances_checked,
        [
            [[str(s) for s in w.subsets if s is not None], w.lhs, w.rhs]
            for w in report.violations
        ],
    ]


@pytest.mark.parametrize(
    "pin", _PINS, ids=[f"{p['database']}-{p['condition']}" for p in _PINS]
)
def test_reports_match_the_pins(pin):
    # json renders the pairwise witnesses' (tau1, tau2) as a list.
    database, condition = pin["database"], pin["condition"]
    full = check_condition(_pinned_database(database), condition, all_witnesses=True)
    assert json.loads(json.dumps(_rendered(full))) == pin["all"]
    first = check_condition(_pinned_database(database), condition)
    assert json.loads(json.dumps(_rendered(first))) == pin["first"]
    for budget, expected in pin["budgets"].items():
        runtime = Runtime.with_limits(budget=int(budget))
        report = check_condition(_pinned_database(database), condition, runtime=runtime)
        timed_out = report.timed_out
        examined = None if timed_out is None else timed_out.units_examined
        assert [report.verdict(), examined, runtime.units_spent] == expected


class TestOnPaperExamples:
    def test_example1_satisfies_c1(self, ex1):
        assert check_c1(ex1).holds

    def test_example1_violates_c2(self, ex1):
        # tau(R1 ⋈ R2) = 10 > max(4, 4) (the paper's Example 2, part 1).
        report = check_c2(ex1)
        assert not report.holds
        witness = report.violations[0]
        assert witness.lhs == 10
        assert witness.rhs == (4, 4)

    def test_example2_satisfies_c2_violates_c1(self, ex2):
        assert check_c2(ex2).holds
        report = check_c1(ex2)
        assert not report.holds
        # The paper's witness: tau(R2' ⋈ R1') = 7 > 6 = tau(R2' ⋈ R3').
        assert any(w.lhs == 7 and w.rhs == 6 for w in report.violations)

    def test_example3_c1_but_not_strict(self, ex3):
        assert check_c1(ex3).holds
        assert not check_c1_strict(ex3).holds

    def test_example4_c2_but_not_c1(self, ex4):
        assert check_c2(ex4).holds
        assert not check_c1(ex4).holds

    def test_example5_c1_c2_but_not_c3(self, ex5):
        assert check_c1(ex5).holds
        assert check_c2(ex5).holds
        report = check_c3(ex5, all_witnesses=True)
        assert not report.holds
        # The paper's witness: tau(CI ⋈ ID) = 4 > 3 = tau(ID).
        assert any(w.lhs == 4 and 3 in w.rhs for w in report.violations)


class TestImplications:
    def test_c1_strict_implies_c1(self, ex5):
        # On any database where C1' holds, C1 must hold.
        if check_c1_strict(ex5).holds:
            assert check_c1(ex5).holds

    def test_c3_implies_c2(self):
        db = _superkey_chain()
        assert check_c3(db).holds
        assert check_c2(db).holds

    def test_c3_implies_c1_lemma5(self):
        # Lemma 5: C3 (with R_D nonempty) implies C1.
        db = _superkey_chain()
        assert db.is_nonnull()
        assert check_c3(db).holds
        assert check_c1(db).holds


def _superkey_chain():
    """A 3-chain where every join attribute is a key of both sides."""
    return Database(
        [
            relation("AB", [(1, 10), (2, 20), (3, 30)], name="R1"),
            relation("BC", [(10, 100), (20, 200), (30, 300)], name="R2"),
            relation("CD", [(100, 7), (200, 8), (300, 9)], name="R3"),
        ]
    )


class TestReportMechanics:
    def test_report_counts_instances(self, ex3):
        report = check_c1(ex3)
        assert report.instances_checked > 0

    def test_report_truthiness(self, ex3):
        assert bool(check_c1(ex3)) is True
        assert bool(check_c1_strict(ex3)) is False

    def test_all_witnesses_flag(self, ex1):
        stopped = check_c2(ex1)
        exhaustive = check_c2(ex1, all_witnesses=True)
        assert len(stopped.violations) == 1
        assert len(exhaustive.violations) >= len(stopped.violations)

    def test_repr_mentions_verdict(self, ex3):
        assert "holds" in repr(check_c1(ex3))
        assert "fails" in repr(check_c1_strict(ex3))

    def test_witness_repr(self, ex2):
        report = check_c1(ex2)
        assert "lhs=7" in repr(report.violations[0])


class TestCheckConditionDispatch:
    def test_by_name(self, ex3):
        assert check_condition(ex3, "C1").holds
        assert not check_condition(ex3, "C1'").holds

    def test_case_insensitive(self, ex3):
        assert check_condition(ex3, "c1").holds

    def test_unknown_condition_rejected(self, ex3):
        with pytest.raises(ReproError):
            check_condition(ex3, "C9")


class TestC4:
    def test_c4_on_consistent_chain(self):
        # Pairwise-consistent chain: joins only grow.
        db = Database(
            [
                relation("AB", [(1, 0), (2, 0)], name="R1"),
                relation("BC", [(0, 5), (0, 6)], name="R2"),
            ]
        )
        assert check_c4(db).holds

    def test_c4_fails_with_dangling_tuples(self):
        db = Database(
            [
                relation("AB", [(1, 0), (2, 9)], name="R1"),
                relation("BC", [(0, 5)], name="R2"),
            ]
        )
        assert not check_c4(db).holds

    def test_c3_and_c4_together_mean_size_preserving(self):
        db = Database(
            [
                relation("AB", [(1, 0)], name="R1"),
                relation("BC", [(0, 5)], name="R2"),
            ]
        )
        assert check_c3(db).holds
        assert check_c4(db).holds


class TestSingleRelationEdgeCases:
    def test_all_conditions_vacuous_on_single_relation(self):
        db = Database([relation("AB", [(1, 1)])])
        for name in ("C1", "C1'", "C2", "C3", "C4"):
            report = check_condition(db, name)
            assert report.holds
            assert report.instances_checked == 0
