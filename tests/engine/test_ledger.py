"""Unit tests for the shared budget ledger."""

import pytest

from repro.core import Crowd
from repro.engine import BudgetLedger, LedgerBudget, LedgerError


class TestBudgetLedger:
    def test_reserve_commit_refunds_remainder(self):
        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(6.0, label="round")
        assert ledger.available == pytest.approx(4.0)
        assert ledger.outstanding == pytest.approx(6.0)
        ledger.commit(ticket, 2.5)
        assert ledger.committed == pytest.approx(2.5)
        assert ledger.outstanding == 0.0
        assert ledger.available == pytest.approx(7.5)

    def test_release_refunds_in_full(self):
        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(6.0)
        ledger.release(ticket)
        assert ledger.available == pytest.approx(10.0)
        assert ledger.committed == 0.0
        assert ledger.open_reservations == 0

    def test_cannot_overdraw_the_pool(self):
        ledger = BudgetLedger(10.0)
        ledger.reserve(7.0)
        with pytest.raises(LedgerError, match="cannot reserve"):
            ledger.reserve(4.0)
        # A ledger holds the invariant even across many reservations.
        ledger.reserve(3.0)
        with pytest.raises(LedgerError):
            ledger.reserve(0.5)

    def test_double_settlement_is_rejected(self):
        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(5.0)
        ledger.commit(ticket, 5.0)
        with pytest.raises(LedgerError, match="already settled"):
            ledger.commit(ticket, 1.0)
        with pytest.raises(LedgerError, match="already settled"):
            ledger.release(ticket)

    def test_commit_cannot_exceed_reservation(self):
        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(3.0)
        with pytest.raises(LedgerError, match="exceeds reservation"):
            ledger.commit(ticket, 3.5)
        # The failed commit must not consume the ticket.
        ledger.commit(ticket, 3.0)
        assert ledger.committed == pytest.approx(3.0)

    def test_commit_direct_is_bounded_by_available(self):
        ledger = BudgetLedger(10.0)
        ledger.commit_direct(8.0)
        with pytest.raises(LedgerError, match="direct commit"):
            ledger.commit_direct(4.0)
        ledger.commit_direct(2.0)
        assert ledger.committed == pytest.approx(10.0)

    def test_negative_amounts_rejected(self):
        ledger = BudgetLedger(10.0)
        with pytest.raises(ValueError):
            ledger.reserve(-1.0)
        ticket = ledger.reserve(1.0)
        with pytest.raises(ValueError):
            ledger.commit(ticket, -1.0)
        with pytest.raises(ValueError):
            ledger.commit_direct(-1.0)
        with pytest.raises(ValueError):
            BudgetLedger(-1.0)

    def test_as_dict_snapshot(self):
        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(4.0)
        ledger.commit(ticket, 4.0)
        ledger.reserve(1.0)
        snapshot = ledger.as_dict()
        assert snapshot == {
            "total": 10.0,
            "committed": 4.0,
            "outstanding": 1.0,
            "open_reservations": 1,
        }

    def test_shared_ledger_serializes_two_campaigns(self):
        """Two budgets drawing on one ledger cannot jointly overspend."""
        ledger = BudgetLedger(10.0)
        first = LedgerBudget(10.0, ledger=ledger)
        second = LedgerBudget(10.0, ledger=ledger)
        experts = Crowd.from_accuracies([0.9], prefix="e")
        first.reserve_pending(6, experts)
        with pytest.raises(LedgerError):
            second.reserve_pending(6, experts)
        first.release_pending()
        second.reserve_pending(6, experts)


class TestLedgerBudget:
    @pytest.fixture
    def experts(self):
        return Crowd.from_accuracies([0.9, 0.95], prefix="e")

    def test_charge_settles_open_reservation(self, experts):
        budget = LedgerBudget(100.0)
        budget.reserve_pending(2, experts)
        assert budget.ledger.open_reservations == 1
        cost = budget.charge_round(2, experts)
        assert budget.ledger.open_reservations == 0
        assert budget.ledger.committed == pytest.approx(cost)
        assert budget.ledger.committed == pytest.approx(budget.spent)

    def test_double_reservation_is_a_bug(self, experts):
        budget = LedgerBudget(100.0)
        budget.reserve_pending(1, experts)
        with pytest.raises(LedgerError, match="already open"):
            budget.reserve_pending(1, experts)

    def test_release_pending_refunds(self, experts):
        budget = LedgerBudget(100.0)
        budget.reserve_pending(2, experts)
        budget.release_pending()
        assert budget.ledger.available == pytest.approx(100.0)
        budget.release_pending()  # idempotent

    def test_charge_without_reservation_commits_direct(self, experts):
        """A resumed mid-round session's reservation died with the
        crashed process; the charge still lands on the ledger."""
        budget = LedgerBudget(100.0)
        cost = budget.charge_round(2, experts)
        assert budget.ledger.committed == pytest.approx(cost)

    def test_restore_spent_catches_ledger_up(self, experts):
        budget = LedgerBudget(100.0)
        budget.restore_spent(12.0)
        assert budget.spent == pytest.approx(12.0)
        assert budget.ledger.committed == pytest.approx(12.0)
        # And further charges accumulate on top.
        budget.reserve_pending(1, experts)
        budget.charge_round(1, experts)
        assert budget.ledger.committed == pytest.approx(budget.spent)

    def test_spent_trajectory_matches_plain_budget(self, experts):
        from repro.core.budget import CheckingBudget

        plain = CheckingBudget(40.0)
        ledgered = LedgerBudget(40.0)
        for _ in range(3):
            ledgered.reserve_pending(2, experts)
            assert ledgered.charge_round(2, experts) == plain.charge_round(
                2, experts
            )
            assert ledgered.spent == plain.spent
            assert ledgered.remaining == plain.remaining


class TestLedgerAudit:
    """Leak hunting: every open reservation is attributable, and the
    teardown hooks guarantee a clean campaign leaves none behind."""

    def test_audit_lists_open_reservations(self):
        ledger = BudgetLedger(20.0)
        first = ledger.reserve(5.0, label="round:2q")
        second = ledger.reserve(3.0, label="deposit:acme/job")
        assert ledger.audit() == [
            {"ticket": first, "amount": 5.0, "label": "round:2q"},
            {"ticket": second, "amount": 3.0, "label": "deposit:acme/job"},
        ]
        ledger.commit(first, 4.0)
        assert [entry["ticket"] for entry in ledger.audit()] == [second]
        ledger.release(second)
        assert ledger.audit() == []

    def test_close_releases_an_orphaned_reservation(self):
        experts = Crowd.from_accuracies([0.95, 0.92])
        budget = LedgerBudget(100.0)
        budget.reserve_pending(2, experts)
        assert budget.ledger.open_reservations == 1
        # A mid-round abort never reaches the charge; close() is the
        # teardown path that returns the hold to the pool.
        budget.close()
        assert budget.ledger.open_reservations == 0
        assert budget.ledger.available == pytest.approx(100.0)
        budget.close()  # idempotent

    def test_context_manager_releases_on_abort(self):
        experts = Crowd.from_accuracies([0.95, 0.92])
        shared = BudgetLedger(50.0)
        with pytest.raises(RuntimeError, match="mid-round abort"):
            with LedgerBudget(50.0, ledger=shared) as budget:
                budget.reserve_pending(2, experts)
                raise RuntimeError("mid-round abort")
        assert shared.open_reservations == 0
        assert shared.audit() == []

    def test_runner_abort_leaves_no_reservation(self, tmp_path):
        """A campaign killed between selection and the charge releases
        its worst-case round hold when the runner unwinds."""
        from repro.datasets.synthetic import (
            WorkerPoolSpec,
            make_synthetic_dataset,
        )
        from repro.engine import ParallelCampaignRunner
        from repro.simulation.session import SessionConfig

        class ExplodingSource:
            def collect(self, queries, experts):
                raise RuntimeError("collection infrastructure died")

        dataset = make_synthetic_dataset(
            num_groups=4,
            group_size=4,
            answers_per_fact=6,
            pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
            seed=6,
        )
        shared = BudgetLedger(40.0)
        runner = ParallelCampaignRunner(
            dataset,
            SessionConfig(budget=14.0, k=2, seed=1),
            answer_source=ExplodingSource(),
            jobs=2,
            ledger=shared,
        )
        with pytest.raises(RuntimeError, match="infrastructure died"):
            runner.run()
        assert shared.open_reservations == 0, shared.audit()


class TestLedgerExactness:
    """The books are kept in exact decimal fractions — float charge
    streams that would accumulate binary drift settle exactly."""

    def test_ten_dimes_commit_to_exactly_one(self):
        ledger = BudgetLedger(1.0)
        for _ in range(10):
            ledger.commit_direct(0.1)
        # float accumulation gives 0.9999999999999999; the ledger not
        assert ledger.committed == 1.0
        assert ledger.available == 0.0

    def test_many_awkward_charges_settle_exactly(self):
        ledger = BudgetLedger(400.0)
        for _ in range(24):
            ticket = ledger.reserve(14.4)
            ledger.commit(ticket, 14.4)
        assert ledger.committed == 345.6
        # float arithmetic puts 400.0 - 345.6 at 54.400000000000006 and
        # 24 * 14.4 at 345.59999999999997; the exact books do not
        assert ledger.available == 54.4
        assert ledger.open_reservations == 0

    def test_exact_books_admit_the_full_total(self):
        # 0.1 + 0.2 > 0.3 in floats; exact books still admit the rest
        ledger = BudgetLedger(0.6)
        ledger.commit_direct(0.1)
        ledger.commit_direct(0.2)
        ticket = ledger.reserve(0.3)
        ledger.commit(ticket, 0.3)
        assert ledger.committed == 0.6
        assert ledger.available == 0.0

    def test_audit_amounts_are_exact(self):
        ledger = BudgetLedger(10.0)
        ledger.reserve(0.1, label="a")
        ledger.reserve(0.2, label="b")
        amounts = [entry["amount"] for entry in ledger.audit()]
        assert amounts == [0.1, 0.2]
        assert ledger.outstanding == pytest.approx(0.3)

    def test_as_dict_round_trips_without_drift(self):
        ledger = BudgetLedger(1.0)
        for _ in range(7):
            ledger.commit_direct(0.1)
        snapshot = ledger.as_dict()
        assert snapshot["committed"] == 0.7
        assert snapshot["outstanding"] == 0.0
        assert snapshot["total"] == 1.0
        assert snapshot["open_reservations"] == 0


class TestStrictAudit:
    """``audit(strict=True)``: the books validate themselves, and a
    violated invariant surfaces as a typed, snapshot-carrying error."""

    def test_clean_books_pass_with_open_reservations(self):
        # open reservations are legitimate mid-flight state (recovery
        # and the soak harness audit while campaigns hold deposits)
        ledger = BudgetLedger(20.0)
        ledger.reserve(5.0, label="deposit:acme/job")
        entries = ledger.audit(strict=True)
        assert [entry["label"] for entry in entries] == ["deposit:acme/job"]

    def test_negative_committed_raises_with_the_books(self):
        from fractions import Fraction

        from repro.engine import LedgerDriftError

        ledger = BudgetLedger(10.0)
        ledger.commit_direct(2.0)
        ledger._committed = Fraction(-1, 4)  # simulated corruption
        with pytest.raises(LedgerDriftError, match="negative") as info:
            ledger.audit(strict=True)
        assert info.value.books["committed"] == -0.25
        assert info.value.books["total"] == 10.0
        # non-strict audit still answers (leak hunting must not throw)
        assert ledger.audit() == []

    def test_overdraft_raises(self):
        from fractions import Fraction

        from repro.engine import LedgerDriftError

        ledger = BudgetLedger(10.0)
        ledger.reserve(6.0, label="round")
        ledger._committed = Fraction(9)  # books no longer add up
        with pytest.raises(LedgerDriftError, match="exceeds the total"):
            ledger.audit(strict=True)

    def test_negative_reservation_raises(self):
        from fractions import Fraction

        from repro.engine import LedgerDriftError

        ledger = BudgetLedger(10.0)
        ticket = ledger.reserve(3.0, label="round")
        ledger._reservations[ticket] = (Fraction(-3), "round")
        with pytest.raises(LedgerDriftError, match="negative amount"):
            ledger.audit(strict=True)

    def test_drift_error_is_a_ledger_error(self):
        from repro.engine import LedgerDriftError

        assert issubclass(LedgerDriftError, LedgerError)
