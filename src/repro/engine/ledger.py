"""The service's budget pool: reserve → commit/release accounting.

Each campaign charges its own :class:`~repro.core.budget.CheckingBudget`
after its answers arrive, one round at a time.  Campaigns that share a
pool are a different matter: two of them could each see enough of the
pool left and both go ahead — a double-spend.  The bandit view of
expert labor as a contended shared resource (Zhang & Sugiyama, 2015)
makes the fix explicit: money is *reserved* before the work starts,
*committed* (at the actual, possibly smaller, cost) when it is done,
and *released* when it is abandoned.  The campaign service
(:mod:`~repro.service.admission`) reserves a campaign's whole remaining
budget as a deposit at admission and settles it at completion, so a
round's arithmetic never touches the pool.

:class:`BudgetLedger` is the invariant-enforcing book, thread-safe and
kept in exact rationals.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from ..obs import OBS

#: Tolerance for float accumulation when checking ledger invariants,
#: matching :class:`~repro.core.budget.CheckingBudget`'s slack, as an
#: exact rational for the internal books.
_SLACK_EXACT = Fraction("1e-9")


def _exact(value: "float | Fraction") -> Fraction:
    """A float amount as the exact rational the caller *meant*.

    ``Fraction(str(x))`` parses the float's shortest round-trip decimal
    repr, so ``14.4`` becomes exactly ``72/5`` rather than the binary
    neighbor ``14.4000000000000003552713678800500929355621337890625``.
    Summing those rationals is associative and drift-free — the
    committed pool of 24 campaigns at 14.4 each is exactly ``345.6``,
    not ``345.59999999999997``.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(str(float(value)))


class LedgerError(RuntimeError):
    """An operation would violate the ledger's accounting invariants."""


class LedgerDriftError(LedgerError):
    """A strict audit found the books themselves inconsistent.

    Every mutation path guards its own invariant, so drift can only
    mean corrupted state — a bug, or accounting replayed from a damaged
    journal.  ``books`` carries the full offending snapshot (exact
    amounts rendered as floats, plus every open reservation) so crash
    recovery and the soak harness can report *what* drifted, not just
    that something did.
    """

    def __init__(self, message: str, books: dict):
        super().__init__(message)
        self.books = books


class BudgetLedger:
    """Reservation/refund accounting over one shared budget.

    Invariants (enforced, not documented-only):

    * ``committed + outstanding <= total`` at all times;
    * a reservation can be settled exactly once (commit or release);
    * a commit can never exceed its reservation — the unused remainder
      is refunded to the available pool atomically with the commit.

    The books are kept in exact rational arithmetic (see :func:`_exact`)
    so long-running pools never accumulate float drift; the public API
    stays float-in/float-out.
    """

    def __init__(self, total: float):
        if not math.isfinite(total) or total < 0:
            raise ValueError(
                f"ledger total must be finite and non-negative, got {total!r}"
            )
        self._total = _exact(total)
        self._committed = Fraction(0)
        self._reservations: dict[int, tuple[Fraction, str]] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return float(self._total)

    @property
    def committed(self) -> float:
        """Budget definitively spent (sum of committed amounts)."""
        with self._lock:
            return float(self._committed)

    @property
    def outstanding(self) -> float:
        """Budget held by open reservations (not yet committed)."""
        with self._lock:
            return float(self._outstanding_locked())

    @property
    def available(self) -> float:
        """Budget no one has claimed: ``total - committed - outstanding``."""
        with self._lock:
            return float(self._available_locked())

    def _outstanding_locked(self) -> Fraction:
        return sum(
            (amount for amount, _ in self._reservations.values()),
            Fraction(0),
        )

    def _available_locked(self) -> Fraction:
        return self._total - self._committed - self._outstanding_locked()

    @property
    def open_reservations(self) -> int:
        with self._lock:
            return len(self._reservations)

    # ------------------------------------------------------------------

    def reserve(self, amount: float, label: str = "") -> int:
        """Claim ``amount`` from the available pool; returns a ticket id.

        Raises :class:`LedgerError` when the pool cannot cover it — the
        caller must not start the work.
        """
        if amount < 0:
            raise ValueError("reservation amount must be non-negative")
        exact = _exact(amount)
        with self._lock:
            if exact > self._available_locked() + _SLACK_EXACT:
                raise LedgerError(
                    f"cannot reserve {float(exact)}: only "
                    f"{float(self._available_locked())} of "
                    f"{float(self._total)} available "
                    f"({len(self._reservations)} reservations open)"
                )
            ticket = self._next_id
            self._next_id += 1
            self._reservations[ticket] = (exact, label)
        self._publish("reserve")
        return ticket

    def commit(self, ticket: int, amount: float) -> None:
        """Settle a reservation at its actual cost, refunding the rest.

        ``amount`` may be anything in ``[0, reserved]`` — a campaign
        that stops short of its budget commits only what it spent.
        """
        if amount < 0:
            raise ValueError("commit amount must be non-negative")
        exact = _exact(amount)
        with self._lock:
            if ticket not in self._reservations:
                raise LedgerError(
                    f"reservation {ticket} is unknown or already settled"
                )
            reserved, _label = self._reservations[ticket]
            if exact > reserved + _SLACK_EXACT:
                raise LedgerError(
                    f"commit {float(exact)} exceeds reservation "
                    f"{float(reserved)} (ticket {ticket})"
                )
            del self._reservations[ticket]
            # Clamp to the reservation: the slack only forgives float
            # rounding in the *caller's* arithmetic, it must not let
            # the exact books exceed ``total``.
            self._committed += min(exact, reserved)
        self._publish("commit")

    def release(self, ticket: int) -> None:
        """Refund a reservation in full (the work was abandoned)."""
        with self._lock:
            if ticket not in self._reservations:
                raise LedgerError(
                    f"reservation {ticket} is unknown or already settled"
                )
            del self._reservations[ticket]
        self._publish("release")

    def commit_direct(self, amount: float) -> None:
        """Commit without a reservation (restart catch-up).

        Used when the service re-admits a campaign after a restart: the
        spending already on its journal is committed to the fresh pool.
        Still bounded by the available pool.
        """
        if amount < 0:
            raise ValueError("commit amount must be non-negative")
        exact = _exact(amount)
        with self._lock:
            available = self._available_locked()
            if exact > available + _SLACK_EXACT:
                raise LedgerError(
                    f"direct commit {float(exact)} exceeds available "
                    f"{float(available)}"
                )
            self._committed += min(exact, available)
        self._publish("commit_direct")

    def _publish(self, operation: str) -> None:
        """Mirror the books into the registry after a settled mutation.

        Called outside the lock — the gauges are a monitoring view, not
        part of the exact accounting, so a racy read of ``committed``
        between two concurrent settles is harmless.
        """
        if not OBS.enabled:
            return
        OBS.registry.counter(
            "repro_ledger_operations_total",
            "Settled ledger mutations by operation",
            labels=("operation",),
        ).labels(operation=operation).inc()
        OBS.publish_gauges(
            "repro_ledger",
            {
                "committed": self.committed,
                "outstanding": self.outstanding,
                "available": self.available,
                "open_reservations": self.open_reservations,
            },
        )

    def audit(self, strict: bool = False) -> list[dict]:
        """Describe every open reservation (leak hunting).

        A campaign that exits cleanly must leave the ledger with
        ``open_reservations == 0``; anything this returns after a
        completed campaign is a leaked hold on the shared pool.  Each
        entry carries the ticket id, the reserved amount, and the label
        the reserver attached.  Amounts are exact: they are the
        rationals on the books rendered as floats, never re-derived by
        float summation.

        With ``strict=True`` the books themselves are validated —
        non-negative committed pool and reservations, and
        ``committed + outstanding <= total`` (within the float-intent
        slack) — and a violation raises :class:`LedgerDriftError`
        carrying the offending snapshot.  Open reservations are *not* a
        strict failure: recovery and the soak harness audit mid-flight,
        with live campaigns legitimately holding deposits.
        """
        with self._lock:
            entries = [
                {"ticket": ticket, "amount": float(amount), "label": label}
                for ticket, (amount, label) in sorted(
                    self._reservations.items()
                )
            ]
            if not strict:
                return entries
            problems = []
            if self._committed < 0:
                problems.append(
                    f"committed pool is negative ({float(self._committed)})"
                )
            for entry in entries:
                if entry["amount"] < 0:
                    problems.append(
                        f"reservation {entry['ticket']} "
                        f"({entry['label']!r}) holds a negative amount "
                        f"({entry['amount']})"
                    )
            overdraft = (
                self._committed
                + self._outstanding_locked()
                - self._total
            )
            if overdraft > _SLACK_EXACT:
                problems.append(
                    "committed + outstanding exceeds the total pool "
                    f"by {float(overdraft)}"
                )
            if problems:
                books = {
                    "total": float(self._total),
                    "committed": float(self._committed),
                    "outstanding": float(self._outstanding_locked()),
                    "open_reservations": entries,
                }
        if strict and problems:
            raise LedgerDriftError("; ".join(problems), books)
        return entries

    def as_dict(self) -> dict:
        """JSON-compatible snapshot for diagnostics and benchmarks.

        Exact under accumulation: 24 commits of 14.4 report a committed
        pool of exactly ``345.6``.
        """
        with self._lock:
            return {
                "total": float(self._total),
                "committed": float(self._committed),
                "outstanding": float(self._outstanding_locked()),
                "open_reservations": len(self._reservations),
            }

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(total={self.total}, committed={self.committed}, "
            f"open={self.open_reservations})"
        )
