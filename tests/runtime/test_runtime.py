"""Unit tests for the resilience primitives (repro.runtime)."""

import time

import pytest

from repro.errors import OperationCancelled, ReproError
from repro.runtime import (
    BUDGET,
    DEADLINE,
    CancelToken,
    Deadline,
    Runtime,
    WorkBudget,
)


class TestDeadline:
    def test_future_deadline_not_expired(self):
        deadline = Deadline.after(60)
        assert not deadline.expired()
        assert deadline.remaining_ms() > 0

    def test_past_deadline_expired(self):
        deadline = Deadline.after(0)
        time.sleep(0.001)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0

    def test_after_ms(self):
        assert Deadline.after_ms(60_000).remaining_ms() > 59_000

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Deadline.after(-1)


class TestWorkBudget:
    def test_charges_until_exhausted(self):
        budget = WorkBudget(3)
        assert budget.charge() and budget.charge() and budget.charge()
        assert not budget.exhausted
        assert not budget.charge()
        assert budget.exhausted
        assert budget.remaining == 0

    def test_bulk_charge(self):
        budget = WorkBudget(10)
        assert budget.charge(10)
        assert not budget.charge(1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ReproError):
            WorkBudget(0)


class TestCancelToken:
    def test_starts_uncancelled(self):
        token = CancelToken()
        assert not token.cancelled

    def test_cancel_is_sticky(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled
        token.cancel()
        assert token.cancelled


class TestRuntime:
    def test_with_limits_unbounded_is_none(self):
        assert Runtime.with_limits() is None

    def test_charge_reports_budget_trigger(self):
        runtime = Runtime.with_limits(budget=2)
        assert runtime.charge() is None
        assert runtime.charge() is None
        assert runtime.charge() == BUDGET
        assert runtime.exhausted() == BUDGET

    def test_charge_reports_deadline_trigger(self):
        runtime = Runtime(deadline=Deadline.after(0))
        time.sleep(0.001)
        assert runtime.charge() == DEADLINE

    def test_exhausted_does_not_charge(self):
        runtime = Runtime.with_limits(budget=5)
        for _ in range(10):
            assert runtime.exhausted() is None
        assert runtime.units_spent == 0

    def test_cancelled_token_raises(self):
        token = CancelToken()
        runtime = Runtime(token=token)
        assert runtime.charge() is None
        token.cancel()
        with pytest.raises(OperationCancelled):
            runtime.charge()
        with pytest.raises(OperationCancelled):
            runtime.exhausted()


class TestTimedOutVerdict:
    def test_truth_testing_raises(self):
        from repro.conditions.checks import TimedOut

        verdict = TimedOut("deadline", 17)
        with pytest.raises(ReproError, match="undecided"):
            bool(verdict)
        assert verdict.to_dict() == {"trigger": "deadline", "units_examined": 17}

    def test_report_three_valued_accessors(self):
        from repro.conditions.checks import ConditionReport, TimedOut

        timed = ConditionReport("C1", TimedOut("budget", 3), 3, [])
        assert not timed.decided
        assert timed.timed_out.trigger == "budget"
        assert timed.verdict() == "timed-out"
        decided = ConditionReport("C1", True, 9, [])
        assert decided.decided
        assert decided.timed_out is None
        assert decided.verdict() == "holds"
        assert ConditionReport("C1", False, 2, []).verdict() == "fails"
