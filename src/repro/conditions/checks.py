"""Exhaustive decision procedures for conditions C1, C1', C2, C3, C4.

Each condition quantifies over disjoint *connected* subsets of the
database scheme; the checkers enumerate exactly those subsets and compare
the tuple counts the condition compares.  They sweep on the scheme's
:class:`~repro.schemegraph.index.SubsetIndex`: a subset is an int mask,
the connected ones come from
:meth:`~repro.schemegraph.index.SubsetIndex.connected` (enumerated once
per scheme), *disjoint* is ``not a & b`` and *linked* is
``index.linked(a) & b``.

Every count a condition compares is the size of one subset join.  A
linked pair of disjoint subsets joins into a connected subset::

    tau(R_E1 |><| R_E2)  ==  tau(R_{E1 ∪ E2})

while C1's unlinked pair joins into a Cartesian product, whose size is
the product of two counts the sweep already holds::

    tau(R_E |><| R_E2)  ==  tau(R_E) * tau(R_E2)

Counts come from :meth:`Database.tau_of_mask` -- the tau-only path that
counts subset joins without materializing them and caches the counts by
mask (docs/performance.md).

Instances are visited in a fixed nested-loop order over
:meth:`Database.connected_subsets`: ``E``, then ``E1``, then ``E2`` for
C1 and C1'; ``E1``, then each later ``E2`` for C2-C4.  The instance
count, the witnesses and their order, where a stop-at-first check
stops, and the one runtime charge per instance are therefore the same
on every run.

The checkers return a :class:`ConditionReport` carrying the verdict, the
number of instances checked, and -- when the condition fails -- concrete
:class:`Witness` objects reproducing the paper's style of counterexample
("tau(R2' |><| R1') > 6 = tau(R2' |><| R3')", Example 2).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.database import Database
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "TimedOut",
    "Witness",
    "ConditionReport",
    "check_c1",
    "check_c1_strict",
    "check_c2",
    "check_c3",
    "check_c4",
    "check_condition",
]


class TimedOut:
    """The third verdict value of a runtime-bounded condition check.

    A checker running under a :class:`~repro.runtime.Runtime` that
    exhausts its deadline or budget mid-sweep cannot answer ``True``
    (unchecked instances might violate) and must not answer ``False``
    (no violation was found), so its report's ``holds`` is a
    ``TimedOut`` carrying the exhaustion ``trigger`` (``"deadline"`` /
    ``"budget"``) and how many quantifier instances were examined.

    Truth-testing a ``TimedOut`` raises: code written for the two-valued
    world fails loudly instead of silently treating a timeout as a
    verdict.  Branch on ``report.decided`` / ``report.timed_out``.
    """

    __slots__ = ("trigger", "units_examined")

    def __init__(self, trigger: str, units_examined: int):
        self.trigger = trigger
        self.units_examined = units_examined

    def __bool__(self) -> bool:
        raise ReproError(
            f"condition check timed out ({self.trigger} after "
            f"{self.units_examined} instances); the verdict is undecided -- "
            "check report.decided before truth-testing"
        )

    def to_dict(self):
        return {"trigger": self.trigger, "units_examined": self.units_examined}

    def __repr__(self) -> str:
        return f"<TimedOut {self.trigger} after {self.units_examined} instances>"


class Witness:
    """One quantifier instance, with the compared tuple counts.

    For C1/C1' the roles are ``(E, E1, E2)`` with counts
    ``lhs = tau(R_E ⋈ R_E1)`` and ``rhs = tau(R_E ⋈ R_E2)``.  For
    C2/C3/C4 the roles are ``(E1, E2, None)`` with
    ``lhs = tau(R_E1 ⋈ R_E2)`` and ``rhs = (tau(R_E1), tau(R_E2))``.
    """

    __slots__ = ("subsets", "lhs", "rhs")

    def __init__(self, subsets: Tuple, lhs: int, rhs):
        self.subsets = subsets
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        named = ", ".join(str(s) for s in self.subsets if s is not None)
        return f"Witness({named}: lhs={self.lhs}, rhs={self.rhs})"


class ConditionReport:
    """The outcome of checking one condition on one database.

    ``holds`` is three-valued: ``True``, ``False``, or a
    :class:`TimedOut` when a :class:`~repro.runtime.Runtime` stopped the
    sweep before it could decide.  Truth-testing a timed-out report
    raises (see :class:`TimedOut`); ``decided``/``timed_out`` branch
    safely.
    """

    __slots__ = ("condition", "holds", "instances_checked", "violations")

    def __init__(
        self,
        condition: str,
        holds,
        instances_checked: int,
        violations: List[Witness],
    ):
        self.condition = condition
        self.holds = holds
        self.instances_checked = instances_checked
        self.violations = violations

    @property
    def decided(self) -> bool:
        """True when the sweep finished (or found a violation)."""
        return isinstance(self.holds, bool)

    @property
    def timed_out(self) -> Optional[TimedOut]:
        """The :class:`TimedOut` marker, or ``None`` when decided."""
        return None if isinstance(self.holds, bool) else self.holds

    def verdict(self) -> str:
        """``"holds"`` / ``"fails"`` / ``"timed-out"`` -- the rendered
        three-valued verdict (CLI and telemetry use this form)."""
        if not self.decided:
            return "timed-out"
        return "holds" if self.holds else "fails"

    def __bool__(self) -> bool:
        return bool(self.holds)

    def __repr__(self) -> str:
        if not self.decided:
            verdict = repr(self.holds)
        elif self.holds:
            verdict = "holds"
        else:
            verdict = f"fails ({len(self.violations)} witnesses)"
        return (
            f"<{self.condition} {verdict}; "
            f"{self.instances_checked} instances checked>"
        )


# Checker telemetry (docs/observability.md): how many quantifier
# instances each condition actually tested, labeled by condition.
_TRACER = get_tracer()
_METRICS = get_registry()
_PAIRS_TESTED = _METRICS.counter(
    "conditions.pairs_tested", "quantifier instances tested by the checkers"
)


def _published(report: ConditionReport) -> ConditionReport:
    """Record a finished check as an event + counter when observability
    is on; always returns the report unchanged."""
    if _TRACER.enabled:
        _TRACER.event(
            "conditions.check",
            condition=report.condition,
            instances=report.instances_checked,
            holds=report.holds if report.decided else "timed-out",
        )
        _PAIRS_TESTED.inc(report.instances_checked, condition=report.condition)
    return report


# -- the sweeps ------------------------------------------------------------------
# A sweep yields the positions of each quantifier instance in canonical
# order, and None at the start of every outer subset: a row can scan many
# candidates without finding an instance, so the caller polls its
# runtime there.

#: Positions ``(E, E1, E2)`` into the connected subsets (``E2`` is
#: ``None`` for the pairwise conditions), or a poll point.
Positions = Optional[Tuple[int, int, Optional[int]]]


def _triples(masks: Sequence[int], linked: Sequence[int]) -> Iterator[Positions]:
    """C1 and C1': ``E1`` disjoint from ``E`` and linked to it, ``E2``
    disjoint from both and not linked to ``E``."""
    for i, e in enumerate(masks):
        yield None
        reach = linked[i]
        # The E2 that avoid E and its neighbours, whatever E1 is.
        apart = [(k, e2) for k, e2 in enumerate(masks) if not e2 & (e | reach)]
        if not apart:
            continue
        for j, e1 in enumerate(masks):
            if reach & e1 and not e & e1:
                for k, e2 in apart:
                    if not e2 & e1:
                        yield i, j, k


def _pairs(masks: Sequence[int], linked: Sequence[int]) -> Iterator[Positions]:
    """C2-C4: ``E2`` disjoint from ``E1`` and linked to it.  The
    conditions are symmetric, so each unordered pair is visited once
    (``E2`` after ``E1``)."""
    for i, e1 in enumerate(masks):
        yield None
        reach = linked[i]
        for j in range(i + 1, len(masks)):
            e2 = masks[j]
            if reach & e2 and not e1 & e2:
                yield i, j, None


def _triple_counts(masks: Sequence[int], tau: Callable[[int], int], positions):
    """``(tau(R_E ⋈ R_E1), tau(R_E ⋈ R_E2))``; ``E`` is not linked to
    ``E2``, so their join is a Cartesian product."""
    i, j, k = positions
    e = masks[i]
    return tau(e | masks[j]), tau(e) * tau(masks[k])


def _pair_counts(masks: Sequence[int], tau: Callable[[int], int], positions):
    """``(tau(R_E1 ⋈ R_E2), (tau(R_E1), tau(R_E2)))``."""
    e1, e2 = masks[positions[0]], masks[positions[1]]
    return tau(e1 | e2), (tau(e1), tau(e2))


#: condition name -> (sweep, counts, predicate on the counts).
_SPECS = {
    "C1": (_triples, _triple_counts, lambda lhs, rhs: lhs <= rhs),
    "C1'": (_triples, _triple_counts, lambda lhs, rhs: lhs < rhs),
    "C2": (_pairs, _pair_counts, lambda joined, sides: joined <= max(sides)),
    "C3": (_pairs, _pair_counts, lambda joined, sides: joined <= min(sides)),
    "C4": (_pairs, _pair_counts, lambda joined, sides: joined >= max(sides)),
}


# -- checking ------------------------------------------------------------------


def _timed_out_report(
    condition: str, trigger: str, checked: int, runtime
) -> ConditionReport:
    """The undecided report an exhausted check returns (and its
    telemetry).  A violation found *before* exhaustion is definitive, so
    only a clean, incomplete sweep lands here."""
    from repro.obs.recorder import get_recorder

    if runtime is not None:
        runtime.record_exhaustion(trigger, "conditions")
    get_recorder().anomaly(
        "conditions.timed_out",
        provenance={"condition": condition, "trigger": trigger, "checked": checked},
    )
    return _published(
        ConditionReport(condition, TimedOut(trigger, checked), checked, [])
    )


def _check(
    db: Database, condition: str, all_witnesses: bool, runtime=None
) -> ConditionReport:
    """Visit the condition's instances in canonical order.

    Under a ``runtime``, one budget unit is charged per quantifier
    instance, and the runtime is polled at every outer subset.
    Exhaustion mid-sweep yields a :class:`TimedOut` verdict -- unless a
    violation was already found, which decides ``False`` regardless of
    how much of the sweep remains.
    """
    sweep, counts, ok = _SPECS[condition]
    trigger = None if runtime is None else runtime.exhausted()
    checked = 0
    violations: List[Witness] = []
    if trigger is None:
        index = db.scheme.subset_index()
        masks = index.connected()
        tau = db.tau_of_mask
        for positions in sweep(masks, [index.linked(mask) for mask in masks]):
            if runtime is not None:
                trigger = runtime.exhausted() if positions is None else runtime.charge()
                if trigger is not None:
                    break
            if positions is None:
                continue
            checked += 1
            lhs, rhs = counts(masks, tau, positions)
            if not ok(lhs, rhs):
                schemes = db.connected_subsets()
                subsets = tuple(None if p is None else schemes[p] for p in positions)
                violations.append(Witness(subsets, lhs, rhs))
                if not all_witnesses:
                    break
    if trigger is not None and not violations:
        return _timed_out_report(condition, trigger, checked, runtime)
    # A witness decides the condition even when the runtime stopped the
    # sweep (the witness list may then be partial).
    return _published(ConditionReport(condition, not violations, checked, violations))


def check_c1(
    db: Database, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Condition C1: joining with a linked subset never produces more
    tuples than the Cartesian product with an unlinked one
    (``tau(R_E ⋈ R_E1) <= tau(R_E ⋈ R_E2)``)."""
    return _check(db, "C1", all_witnesses, runtime)


def check_c1_strict(
    db: Database, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Condition C1': the strict version required by Theorem 1
    (``tau(R_E ⋈ R_E1) < tau(R_E ⋈ R_E2)``)."""
    return _check(db, "C1'", all_witnesses, runtime)


def check_c2(
    db: Database, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Condition C2: a linked join shrinks at least one side
    (``tau(R_E1 ⋈ R_E2) <= tau(R_E1)`` **or** ``<= tau(R_E2)``)."""
    return _check(db, "C2", all_witnesses, runtime)


def check_c3(
    db: Database, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Condition C3: a linked join shrinks *both* sides
    (``tau(R_E1 ⋈ R_E2) <= tau(R_E1)`` **and** ``<= tau(R_E2)``)."""
    return _check(db, "C3", all_witnesses, runtime)


def check_c4(
    db: Database, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Condition C4 (Section 5): a linked join *grows* both sides
    (``tau(R_E1 ⋈ R_E2) >= tau(R_E1)`` **and** ``>= tau(R_E2)``)."""
    return _check(db, "C4", all_witnesses, runtime)


def check_condition(
    db: Database, name: str, all_witnesses: bool = False, runtime=None
) -> ConditionReport:
    """Check a condition by name (``"C1"``, ``"C1'"``, ``"C2"``, ``"C3"``,
    ``"C4"``).  ``runtime`` bounds the sweep; an exhausted check returns
    a report whose ``holds`` is a :class:`TimedOut` (docs/api.md)."""
    condition = name.upper().replace("′", "'")
    if condition not in _SPECS:
        raise ReproError(
            f"unknown condition {name!r}; expected one of {sorted(_SPECS)}"
        )
    return _check(db, condition, all_witnesses, runtime)
