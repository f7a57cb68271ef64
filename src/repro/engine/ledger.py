"""The shared budget ledger: reserve → commit/release accounting.

The serial runtimes charge a :class:`~repro.core.budget.CheckingBudget`
*after* answers arrive.  That is sound for one sequential campaign, but
as soon as several rounds (or several campaigns sharing one budget) are
in flight, two rounds can each see enough ``remaining`` budget and then
both charge — a double-spend.  The bandit view of expert labor as a
contended shared resource (Zhang & Sugiyama, 2015) makes the fix
explicit: money is *reserved* when a round is dispatched, *committed*
(at the actual, possibly partial, cost) when its answers are accepted,
and *released* when the round is abandoned.  Trust-layer gold probes
are stripped before the charge, so they never touch the ledger at all.

:class:`BudgetLedger` is the invariant-enforcing book (thread-safe; a
campaign writes it from its one loop, but concurrent campaigns may
share one ledger).  :class:`LedgerBudget` adapts it to
the exact :class:`~repro.core.budget.CheckingBudget` interface the
sessions use — every float operation is delegated to the parent class,
so the ``spent`` trajectory (and therefore every checkpoint and journal
byte) is identical to a plain budget's.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from ..core.budget import CheckingBudget, CostModel
from ..core.workers import Crowd
from ..obs import OBS

#: Tolerance for float accumulation when checking ledger invariants,
#: matching :class:`~repro.core.budget.CheckingBudget`'s slack.
_SLACK = 1e-9

#: The same tolerance as an exact rational, for the internal books.
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
        if total < 0:
            raise ValueError("ledger total must be non-negative")
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
        caller must not dispatch the round.
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

        ``amount`` may be anything in ``[0, reserved]`` — partial-family
        acceptance commits only what the received answers cost.
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
        """Refund a reservation in full (the round was abandoned)."""
        with self._lock:
            if ticket not in self._reservations:
                raise LedgerError(
                    f"reservation {ticket} is unknown or already settled"
                )
            del self._reservations[ticket]
        self._publish("release")

    def commit_direct(self, amount: float) -> None:
        """Commit without a reservation (checkpoint-restore catch-up).

        Used when a resumed session re-syncs its pre-crash spending into
        a fresh ledger; still bounded by the available pool.
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


class LedgerBudget(CheckingBudget):
    """A :class:`~repro.core.budget.CheckingBudget` settled on a ledger.

    The session-facing arithmetic (``spent``/``remaining``/
    ``affordable_queries``/charges) is inherited unchanged — byte-for-
    byte the same accounting as a plain budget — while every lifecycle
    event is mirrored onto the :class:`BudgetLedger`:

    * :meth:`reserve_pending` (called by
      :meth:`~repro.simulation.online.OnlineCheckingSession.next_queries`
      right after selection) reserves the worst-case round cost;
    * :meth:`charge_round` / :meth:`charge_family` commit the actual
      cost against the open reservation, refunding the remainder;
    * :meth:`release_pending` (on ``abandon_pending``) refunds in full;
    * :meth:`restore_spent` (checkpoint restore) catches the ledger up
      with a direct commit.
    """

    def __init__(
        self,
        total: float,
        ledger: BudgetLedger | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(total, cost_model=cost_model)
        self.ledger = ledger if ledger is not None else BudgetLedger(total)
        self._open_ticket: int | None = None
        self._ledger_committed = 0.0

    # -- reservation lifecycle (discovered via getattr by the session) --

    def reserve_pending(self, num_queries: int, experts: Crowd) -> None:
        """Reserve the worst-case cost of the just-selected round."""
        if self._open_ticket is not None:
            raise LedgerError(
                "a reservation is already open; settle it before "
                "reserving another round"
            )
        cost = self.cost_model.round_cost(num_queries, experts)
        self._open_ticket = self.ledger.reserve(
            cost, label=f"round:{num_queries}q"
        )

    def release_pending(self) -> None:
        """Refund the open reservation (round abandoned)."""
        if self._open_ticket is not None:
            self.ledger.release(self._open_ticket)
            self._open_ticket = None

    # -- charges settle the reservation --------------------------------

    def charge_round(self, num_queries: int, experts: Crowd) -> float:
        before = self.spent
        cost = super().charge_round(num_queries, experts)
        self._settle(self.spent - before)
        return cost

    def charge_family(self, family) -> float:
        before = self.spent
        cost = super().charge_family(family)
        self._settle(self.spent - before)
        return cost

    def restore_spent(self, amount: float) -> None:
        super().restore_spent(amount)
        delta = self.spent - self._ledger_committed
        if delta < -_SLACK:
            raise LedgerError(
                "restore_spent cannot move the ledger backwards "
                f"(committed {self._ledger_committed}, restoring "
                f"{self.spent})"
            )
        if delta > 0:
            self.ledger.commit_direct(delta)
            self._ledger_committed += delta

    def _settle(self, spent_delta: float) -> None:
        if self._open_ticket is not None:
            self.ledger.commit(self._open_ticket, spent_delta)
            self._open_ticket = None
        else:
            # A resumed mid-round session charges a pending set whose
            # reservation died with the crashed process.
            self.ledger.commit_direct(spent_delta)
        self._ledger_committed += spent_delta

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Release any still-open reservation (abort teardown).

        A campaign that dies between ``reserve_pending`` and the charge
        would otherwise leave its worst-case round cost held on the
        shared ledger forever.  Idempotent; an alias of
        :meth:`release_pending` under the teardown name so campaign
        runtimes can close the tracker unconditionally.
        """
        self.release_pending()

    def __enter__(self) -> "LedgerBudget":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
