"""Online expert trust supervision (circuit breakers + drift detection).

The paper's Definition 1 treats every CE worker's accuracy as known,
fixed and ``>= theta`` for the whole campaign; ``core/calibration``
checks this only *offline*, before the run starts.  Real expert crowds
drift: accounts get shared, attention fades, incentives change.  This
module makes worker reliability a *live, estimated* quantity:

* :class:`BetaTrust` — a per-worker Beta posterior over accuracy,
  updated online from gold-probe answers (weight 1) and from agreement
  with the post-update MAP labels (a configurable fractional weight,
  since the MAP itself can be wrong);
* a CUSUM drift statistic inside :class:`BetaTrust` that accumulates
  evidence of a downward shift away from the declared accuracy;
* :class:`CircuitBreaker` — the classic closed → open → half-open
  automaton per worker: tripped when the posterior lower confidence
  bound falls below the policy threshold (or the drift alarm fires) on
  enough consecutive evaluations, cooled down while quarantined, then
  probed with gold facts during half-open probation and either
  re-admitted with a fresh prior or re-opened;
* :class:`TrustSupervisor` — the bookkeeping object the resilient
  runtime drives: probe scheduling (seeded RNG, journaled), answer
  scoring, breaker evaluation, and JSON state round-tripping so a
  journal resume restores trust byte-identically.

The supervisor itself performs no I/O and touches no belief state; the
runtime (:mod:`repro.simulation.resilient`) applies its decisions via
the existing reassignment path and feeds the posterior means into the
trust-weighted Bayesian update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .workers import ACCURACY_EPSILON, Crowd, Worker, clamp_accuracy

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

BREAKER_STATES = frozenset({BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN})


@dataclass(frozen=True)
class TrustPolicy:
    """Knobs of the online trust supervision layer.

    Parameters
    ----------
    quarantine_lcb:
        Quarantine threshold on the posterior lower confidence bound.
        Deliberately *well below* the tiering theta: the LCB of an
        honest expert hovers far under their point estimate while
        observations are few, and a breaker that trips on noise costs
        more than it saves.  The CUSUM alarm, not this bound, is the
        fast detector for genuine mid-campaign drops.
    prior_strength:
        Pseudo-observation weight of the declared (calibrated) accuracy
        in the Beta prior.  Larger values trust the offline calibration
        longer; smaller values adapt faster.
    z:
        One-sided z-score of the lower confidence bound
        (1.645 == 95%).
    min_observations:
        Minimum accumulated observation weight before the breaker
        evaluates a worker at all (prevents tripping on a handful of
        unlucky answers).
    trip_confirmations:
        Consecutive below-threshold evaluations required to trip
        (squares the false-positive probability at the price of one
        round of extra latency per confirmation).
    agreement_weight:
        Observation weight of agreement with the post-update MAP label
        (gold probes weigh 1.0).  Fractional because the MAP label
        itself can be wrong.
    probe_rate:
        Per-round probability of injecting gold probes into the
        outgoing query set.
    max_probes_per_round:
        Gold probes injected when a probe round fires.
    cooldown_rounds:
        Rounds a tripped worker stays fully quarantined before
        half-open probation begins.
    probation_probes:
        Gold facts sent to a half-open worker per probation attempt.
    probation_pass:
        Correct probation answers required to re-admit
        (``<= probation_probes``).
    drift_threshold:
        CUSUM alarm level; the statistic accumulates
        ``declared - drift_slack - correctness`` per unit observation
        weight, clipped at zero.
    drift_slack:
        Allowed slack below the declared accuracy before drift
        accumulates.
    seed:
        Seed of the supervisor's probe RNG.
    """

    quarantine_lcb: float = 0.6
    prior_strength: float = 8.0
    z: float = 1.645
    min_observations: float = 8.0
    trip_confirmations: int = 2
    agreement_weight: float = 0.5
    probe_rate: float = 0.2
    max_probes_per_round: int = 1
    cooldown_rounds: int = 2
    probation_probes: int = 3
    probation_pass: int = 3
    drift_threshold: float = 5.0
    drift_slack: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.quarantine_lcb < 1.0:
            raise ValueError(
                f"quarantine_lcb must lie in (0, 1), got {self.quarantine_lcb}"
            )
        if self.prior_strength <= 0.0:
            raise ValueError("prior_strength must be positive")
        if self.z < 0.0:
            raise ValueError("z must be non-negative")
        if self.min_observations < 0.0:
            raise ValueError("min_observations must be non-negative")
        if self.trip_confirmations < 1:
            raise ValueError("trip_confirmations must be at least 1")
        if not 0.0 < self.agreement_weight <= 1.0:
            raise ValueError("agreement_weight must lie in (0, 1]")
        if not 0.0 <= self.probe_rate <= 1.0:
            raise ValueError("probe_rate must lie in [0, 1]")
        if self.max_probes_per_round < 1:
            raise ValueError("max_probes_per_round must be at least 1")
        if self.cooldown_rounds < 0:
            raise ValueError("cooldown_rounds must be non-negative")
        if self.probation_probes < 1:
            raise ValueError("probation_probes must be at least 1")
        if not 1 <= self.probation_pass <= self.probation_probes:
            raise ValueError(
                "probation_pass must lie in [1, probation_probes]"
            )
        if self.drift_threshold <= 0.0:
            raise ValueError("drift_threshold must be positive")
        if not 0.0 <= self.drift_slack < 1.0:
            raise ValueError("drift_slack must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "quarantine_lcb": self.quarantine_lcb,
            "prior_strength": self.prior_strength,
            "z": self.z,
            "min_observations": self.min_observations,
            "trip_confirmations": self.trip_confirmations,
            "agreement_weight": self.agreement_weight,
            "probe_rate": self.probe_rate,
            "max_probes_per_round": self.max_probes_per_round,
            "cooldown_rounds": self.cooldown_rounds,
            "probation_probes": self.probation_probes,
            "probation_pass": self.probation_pass,
            "drift_threshold": self.drift_threshold,
            "drift_slack": self.drift_slack,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TrustPolicy":
        return cls(**dict(payload))


@dataclass
class BetaTrust:
    """Beta posterior over one worker's accuracy, plus a CUSUM drift
    statistic against the declared accuracy.

    ``observations`` counts accumulated evidence *weight* (gold probes
    weigh 1, MAP agreement less), not raw answers.
    """

    alpha: float
    beta: float
    declared: float
    observations: float = 0.0
    cusum: float = 0.0

    @classmethod
    def from_declared(cls, accuracy: float, strength: float) -> "BetaTrust":
        """Prior seeded from the declared (calibrated) accuracy."""
        accuracy = clamp_accuracy(accuracy)
        return cls(
            alpha=1.0 + strength * accuracy,
            beta=1.0 + strength * (1.0 - accuracy),
            declared=accuracy,
        )

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        total = self.alpha + self.beta
        return self.alpha * self.beta / (total * total * (total + 1.0))

    def lcb(self, z: float) -> float:
        """Normal-approximation lower confidence bound on the accuracy."""
        return max(0.0, self.mean - z * math.sqrt(self.variance))

    def observe(self, correct: bool, weight: float, slack: float) -> None:
        """Fold one correctness signal into the posterior and the CUSUM."""
        if weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight}")
        if correct:
            self.alpha += weight
        else:
            self.beta += weight
        self.observations += weight
        signal = 1.0 if correct else 0.0
        self.cusum = max(
            0.0, self.cusum + weight * (self.declared - slack - signal)
        )

    def reset(self, strength: float) -> None:
        """Back to a fresh prior (used on re-admission after probation)."""
        fresh = BetaTrust.from_declared(self.declared, strength)
        self.alpha = fresh.alpha
        self.beta = fresh.beta
        self.observations = 0.0
        self.cusum = 0.0

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "declared": self.declared,
            "observations": self.observations,
            "cusum": self.cusum,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BetaTrust":
        return cls(
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            declared=float(payload["declared"]),
            observations=float(payload.get("observations", 0.0)),
            cusum=float(payload.get("cusum", 0.0)),
        )


@dataclass
class CircuitBreaker:
    """Per-worker quarantine automaton: closed → open → half-open."""

    state: str = BREAKER_CLOSED
    opened_at_round: int = -1
    strikes: int = 0
    probes_passed: int = 0
    trip_reason: str = ""

    def __post_init__(self) -> None:
        if self.state not in BREAKER_STATES:
            raise ValueError(f"unknown breaker state {self.state!r}")

    def trip(self, round_index: int, reason: str) -> None:
        self.state = BREAKER_OPEN
        self.opened_at_round = round_index
        self.strikes = 0
        self.probes_passed = 0
        self.trip_reason = reason

    def to_half_open(self) -> None:
        self.state = BREAKER_HALF_OPEN
        self.probes_passed = 0

    def close(self) -> None:
        self.state = BREAKER_CLOSED
        self.opened_at_round = -1
        self.strikes = 0
        self.probes_passed = 0
        self.trip_reason = ""

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "opened_at_round": self.opened_at_round,
            "strikes": self.strikes,
            "probes_passed": self.probes_passed,
            "trip_reason": self.trip_reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CircuitBreaker":
        return cls(
            state=str(payload.get("state", BREAKER_CLOSED)),
            opened_at_round=int(payload.get("opened_at_round", -1)),
            strikes=int(payload.get("strikes", 0)),
            probes_passed=int(payload.get("probes_passed", 0)),
            trip_reason=str(payload.get("trip_reason", "")),
        )


@dataclass(frozen=True)
class TrustDecision:
    """One breaker transition the runtime must act on."""

    kind: str  # "quarantine" | "drift" | "probation" | "readmit" | "reopen"
    worker_id: str
    reason: str = ""


@dataclass(frozen=True)
class WorkerTrustSummary:
    """Point-in-time trust snapshot of one worker."""

    worker_id: str
    declared: float
    mean: float
    lcb: float
    observations: float
    breaker_state: str


@dataclass(frozen=True)
class TrustReport:
    """Campaign-level trust outcome attached to the run result."""

    workers: tuple[WorkerTrustSummary, ...]
    quarantines: int
    readmissions: int

    @property
    def quarantined_worker_ids(self) -> tuple[str, ...]:
        return tuple(
            summary.worker_id
            for summary in self.workers
            if summary.breaker_state != BREAKER_CLOSED
        )


def select_gold_probes(
    ground_truth: Mapping[int, bool],
    fraction: float = 0.1,
    seed: int = 0,
) -> dict[int, bool]:
    """Reserve a seeded fraction of known-truth facts as the probe pool.

    In production the probe pool is a vetted gold set; in simulation we
    carve it out of the dataset's ground truth the same way the offline
    calibration of :mod:`repro.core.calibration` assumes gold tasks
    exist.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if not ground_truth:
        return {}
    fact_ids = sorted(ground_truth)
    count = min(len(fact_ids), max(1, int(round(fraction * len(fact_ids)))))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(fact_ids), size=count, replace=False)
    return {
        fact_ids[index]: bool(ground_truth[fact_ids[index]])
        for index in sorted(int(i) for i in chosen)
    }


class TrustSupervisor:
    """Live trust accounting for an expert panel.

    Parameters
    ----------
    experts:
        The initial checking panel; reserves swapped in later are
        registered via :meth:`register`.
    policy:
        Supervision knobs; defaults to :class:`TrustPolicy()`.
    gold:
        ``fact_id -> truth`` probe pool.  Empty means no probes — trust
        then runs on MAP agreement alone.
    """

    def __init__(
        self,
        experts: Crowd | Iterable[Worker],
        policy: TrustPolicy | None = None,
        gold: Mapping[int, bool] | None = None,
    ):
        self._policy = policy or TrustPolicy()
        self._gold = {
            int(fact_id): bool(truth)
            for fact_id, truth in (gold or {}).items()
        }
        self._rng = np.random.default_rng(self._policy.seed)
        self._trust: dict[str, BetaTrust] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Workers currently removed from the panel, by id.
        self._quarantined: dict[str, Worker] = {}
        self._pending_probes: tuple[int, ...] | None = None
        self.quarantines = 0
        self.readmissions = 0
        for worker in experts:
            self.register(worker)

    # ------------------------------------------------------------------
    # registry / accessors
    # ------------------------------------------------------------------

    @property
    def policy(self) -> TrustPolicy:
        return self._policy

    @property
    def gold_fact_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._gold))

    @property
    def pending_probes(self) -> tuple[int, ...] | None:
        """Probe facts chosen for the in-flight round (journaled so a
        resumed session replays the same probes)."""
        return self._pending_probes

    @property
    def quarantined_workers(self) -> tuple[Worker, ...]:
        return tuple(
            self._quarantined[worker_id]
            for worker_id in sorted(self._quarantined)
        )

    def register(self, worker: Worker) -> None:
        """Start (or keep) tracking a worker; idempotent."""
        if worker.worker_id not in self._trust:
            self._trust[worker.worker_id] = BetaTrust.from_declared(
                worker.accuracy, self._policy.prior_strength
            )
            self._breakers[worker.worker_id] = CircuitBreaker()

    def trust_of(self, worker_id: str) -> BetaTrust:
        return self._trust[worker_id]

    def breaker_of(self, worker_id: str) -> CircuitBreaker:
        return self._breakers[worker_id]

    def is_gold(self, fact_id: int) -> bool:
        return fact_id in self._gold

    def accuracy_overrides(self) -> dict[str, float]:
        """Posterior-mean accuracies for the trust-weighted update.

        Clamped into the epsilon-open interval so a collapsed posterior
        can never make ``P(A | o)`` degenerate.  The clamp is
        load-bearing for the log kernel, not just cosmetic: after
        enough correct gold answers ``alpha / (alpha + beta)`` rounds
        to exactly ``1.0`` in float64 (once ``alpha`` outgrows ``beta``
        by ~16 decimal orders), and an unclamped ``1.0`` would turn the
        kernel's ``log(1 - p)`` mismatch term into ``-inf`` — making a
        single disagreeing expert zero out every observation it
        touches.  With the clamp, every log term the sparse and dense
        log paths compute is finite, so the tempered update's underflow
        guard (:func:`~repro.core.update.tempered_update_with_answer_set`)
        resolves in log space and never has to round-trip a
        flushed-to-zero linear product.
        """
        return {
            worker_id: clamp_accuracy(trust.mean, ACCURACY_EPSILON)
            for worker_id, trust in self._trust.items()
        }

    # ------------------------------------------------------------------
    # probe scheduling
    # ------------------------------------------------------------------

    def select_probes(self, exclude: Iterable[int] = ()) -> tuple[int, ...]:
        """Choose this round's gold probes (possibly none).

        The choice persists in :attr:`pending_probes` until
        :meth:`clear_probes`, so collection retries and journal resumes
        see the same probe set without re-advancing the RNG.
        """
        if self._pending_probes is not None:
            return self._pending_probes
        probes: tuple[int, ...] = ()
        candidates = sorted(set(self._gold) - set(exclude))
        if candidates and self._policy.probe_rate > 0.0:
            if float(self._rng.random()) < self._policy.probe_rate:
                count = min(
                    self._policy.max_probes_per_round, len(candidates)
                )
                chosen = self._rng.choice(
                    len(candidates), size=count, replace=False
                )
                probes = tuple(
                    candidates[index]
                    for index in sorted(int(i) for i in chosen)
                )
        self._pending_probes = probes
        return probes

    def clear_probes(self) -> None:
        self._pending_probes = None

    def probation_probes_for(self, worker_id: str) -> tuple[int, ...]:
        """Gold facts for one half-open worker's probation attempt."""
        candidates = sorted(self._gold)
        if not candidates:
            return ()
        count = min(self._policy.probation_probes, len(candidates))
        chosen = self._rng.choice(len(candidates), size=count, replace=False)
        return tuple(candidates[index] for index in sorted(int(i) for i in chosen))

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score_gold(
        self, worker_id: str, answers: Mapping[int, bool]
    ) -> tuple[int, int]:
        """Score gold-probe answers at weight 1; returns (correct, total)."""
        trust = self._trust[worker_id]
        correct = 0
        total = 0
        for fact_id in sorted(answers):
            if fact_id not in self._gold:
                raise KeyError(f"fact {fact_id} is not in the gold pool")
            hit = bool(answers[fact_id]) == self._gold[fact_id]
            trust.observe(hit, 1.0, self._policy.drift_slack)
            correct += int(hit)
            total += 1
        return correct, total

    def observe_round(
        self,
        answers_by_worker: Mapping[str, Mapping[int, bool]],
        map_labels: Mapping[int, bool],
    ) -> None:
        """Fold one completed round's campaign answers into trust.

        Facts in the gold pool are scored against gold at weight 1;
        everything else against the post-update MAP label at
        ``agreement_weight``.
        """
        for worker_id in sorted(answers_by_worker):
            trust = self._trust.get(worker_id)
            if trust is None:
                continue
            answers = answers_by_worker[worker_id]
            for fact_id in sorted(answers):
                answer = bool(answers[fact_id])
                if fact_id in self._gold:
                    trust.observe(
                        answer == self._gold[fact_id],
                        1.0,
                        self._policy.drift_slack,
                    )
                elif fact_id in map_labels:
                    trust.observe(
                        answer == bool(map_labels[fact_id]),
                        self._policy.agreement_weight,
                        self._policy.drift_slack,
                    )

    # ------------------------------------------------------------------
    # breaker evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, round_index: int, active_worker_ids: Iterable[str]
    ) -> list[TrustDecision]:
        """Advance every breaker one tick; returns transitions to act on.

        ``quarantine`` decisions ask the runtime to pull the worker from
        the panel; ``probation`` decisions ask it to send the worker
        gold probes and report back via :meth:`score_probation`.
        """
        policy = self._policy
        decisions: list[TrustDecision] = []
        active = set(active_worker_ids)
        for worker_id in sorted(self._breakers):
            breaker = self._breakers[worker_id]
            trust = self._trust[worker_id]
            if breaker.state == BREAKER_CLOSED:
                if worker_id not in active:
                    continue
                if trust.observations < policy.min_observations:
                    continue
                lcb = trust.lcb(policy.z)
                reasons = []
                if lcb < policy.quarantine_lcb:
                    reasons.append(
                        f"lcb {lcb:.3f} < {policy.quarantine_lcb:.3f}"
                    )
                if trust.cusum > policy.drift_threshold:
                    reasons.append(
                        f"cusum {trust.cusum:.2f} > "
                        f"{policy.drift_threshold:.2f}"
                    )
                if reasons:
                    breaker.strikes += 1
                    reason = "; ".join(reasons)
                    if breaker.strikes >= policy.trip_confirmations:
                        breaker.trip(round_index, reason)
                        self.quarantines += 1
                        decisions.append(
                            TrustDecision("quarantine", worker_id, reason)
                        )
                    else:
                        decisions.append(
                            TrustDecision(
                                "drift",
                                worker_id,
                                f"strike {breaker.strikes}/"
                                f"{policy.trip_confirmations}: {reason}",
                            )
                        )
                else:
                    breaker.strikes = 0
            elif breaker.state == BREAKER_OPEN:
                if (
                    round_index - breaker.opened_at_round
                    >= policy.cooldown_rounds
                ):
                    breaker.to_half_open()
                    decisions.append(
                        TrustDecision(
                            "probation",
                            worker_id,
                            f"cooldown elapsed ({policy.cooldown_rounds} "
                            "rounds); entering half-open probation",
                        )
                    )
            elif breaker.state == BREAKER_HALF_OPEN:
                # still waiting on probation probes (e.g. a timed-out
                # attempt); ask the runtime to probe again
                decisions.append(
                    TrustDecision(
                        "probation", worker_id, "probation pending"
                    )
                )
        return decisions

    def quarantine_worker(self, worker: Worker) -> None:
        """Record that the runtime pulled ``worker`` from the panel."""
        self._quarantined[worker.worker_id] = worker

    def score_probation(
        self,
        worker_id: str,
        answers: Mapping[int, bool],
        round_index: int,
    ) -> TrustDecision:
        """Judge one probation attempt; missing answers count as misses.

        Re-admission resets the posterior to a fresh declared-accuracy
        prior (clean slate — the polluted history would otherwise trip
        the breaker again immediately, even for a recovered worker).
        """
        policy = self._policy
        breaker = self._breakers[worker_id]
        correct, _total = (
            self.score_gold(worker_id, answers) if answers else (0, 0)
        )
        breaker.probes_passed += correct
        if breaker.probes_passed >= policy.probation_pass:
            breaker.close()
            self._trust[worker_id].reset(policy.prior_strength)
            self._quarantined.pop(worker_id, None)
            self.readmissions += 1
            return TrustDecision(
                "readmit",
                worker_id,
                f"passed probation ({correct} correct gold probes)",
            )
        breaker.trip(
            round_index,
            f"failed probation ({correct}/{policy.probation_probes} "
            "gold probes correct)",
        )
        return TrustDecision(
            "reopen",
            worker_id,
            f"failed probation ({correct}/{policy.probation_probes})",
        )

    # ------------------------------------------------------------------
    # reporting / state
    # ------------------------------------------------------------------

    def report(self) -> TrustReport:
        summaries = tuple(
            WorkerTrustSummary(
                worker_id=worker_id,
                declared=self._trust[worker_id].declared,
                mean=self._trust[worker_id].mean,
                lcb=self._trust[worker_id].lcb(self._policy.z),
                observations=self._trust[worker_id].observations,
                breaker_state=self._breakers[worker_id].state,
            )
            for worker_id in sorted(self._trust)
        )
        return TrustReport(
            workers=summaries,
            quarantines=self.quarantines,
            readmissions=self.readmissions,
        )

    def get_state(self) -> dict:
        """JSON-compatible snapshot for the session journal."""
        return {
            "policy": self._policy.to_dict(),
            "gold": [
                [fact_id, self._gold[fact_id]]
                for fact_id in sorted(self._gold)
            ],
            "trust": {
                worker_id: trust.to_dict()
                for worker_id, trust in self._trust.items()
            },
            "breakers": {
                worker_id: breaker.to_dict()
                for worker_id, breaker in self._breakers.items()
            },
            "quarantined": [
                [worker.worker_id, worker.accuracy]
                for worker in self.quarantined_workers
            ],
            "pending_probes": (
                list(self._pending_probes)
                if self._pending_probes is not None
                else None
            ),
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "TrustSupervisor":
        """Rebuild a supervisor from :meth:`get_state` output."""
        supervisor = cls(
            (),
            policy=TrustPolicy.from_dict(state["policy"]),
            gold={
                int(fact_id): bool(truth)
                for fact_id, truth in state.get("gold", ())
            },
        )
        supervisor._trust = {
            str(worker_id): BetaTrust.from_dict(payload)
            for worker_id, payload in state.get("trust", {}).items()
        }
        supervisor._breakers = {
            str(worker_id): CircuitBreaker.from_dict(payload)
            for worker_id, payload in state.get("breakers", {}).items()
        }
        supervisor._quarantined = {
            str(worker_id): Worker(str(worker_id), float(accuracy))
            for worker_id, accuracy in state.get("quarantined", ())
        }
        pending = state.get("pending_probes")
        supervisor._pending_probes = (
            tuple(int(fact_id) for fact_id in pending)
            if pending is not None
            else None
        )
        supervisor.quarantines = int(state.get("quarantines", 0))
        supervisor.readmissions = int(state.get("readmissions", 0))
        supervisor._rng.bit_generator.state = state["rng"]
        return supervisor
