"""Unit tests for the shared budget ledger."""

import pytest

from repro.engine import BudgetLedger, LedgerError


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

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(ValueError, match="finite"):
            BudgetLedger(total)

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


class TestLedgerAudit:
    """Leak hunting: every open reservation is attributable."""

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
