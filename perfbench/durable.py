"""The ``durable`` workload: a closed loop on a journaled CampaignService.

Two tenants each keep one batch campaign and one streamed campaign in
flight and submit a new one of the same kind when one completes.

* Batch campaigns have the 160 x 8 engine-campaign shape: 8 experts,
  k = 4, budget 256 (8 rounds), ``jobs=2`` process shards.  The service
  steps one campaign at a time, so at most two shard workers compute
  at once on a 2-CPU box.
* Streamed campaigns replay a bursty event log (5 groups x 3 facts)
  through the reorder/duplicate/stall delivery schedule of the stream
  benchmark as input disorder.

Batch replacements are submitted in pairs, once both tenants' batch
campaigns have completed, so the two run in step.  After the steady
window the service is closed as a clean stand-in for a crash, at the
point where both in-flight batch campaigns have committed one round, so
every run recovers the same amount of batch journal.  A fresh service on
the same root then runs ``recover()``, resubmits the specs that never
launched, and steps until every reattached campaign has committed one
more step; the loop runs on to the next such point and crashes again,
three times in all.  Journals of completed campaigns are moved to
an archive directory as they complete, as an operator would, so the
sweep reads only the journals of campaigns in flight.

This is the only workload that exercises ``service``, ``engine``,
``stream`` and the journal: the journal is written in the steady window
and read back in the recovery.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ServicePolicy,
    ServiceError,
)
from repro.simulation.session import SessionConfig

from spans import NO_SPANS
from speed import PAD, SpeedTrack, p95

TENANTS = ("t0", "t1")
KINDS = ("batch", "stream")
BATCH_BUDGET = 256.0
BATCH_K = 4
BATCH_EXPERTS = 8
BATCH_ROUNDS = int(BATCH_BUDGET // (BATCH_K * BATCH_EXPERTS))
BATCH_JOBS = 2
#: The steady window ends once both in-flight batch campaigns have
#: committed this many rounds, so every run recovers the same amount of
#: batch journal.
CRASH_ROUND = 1
#: Longest the window runs on past ``--seconds`` looking for that point.
CRASH_GRACE_S = 30.0
#: Crash-and-recover cycles per run; ``recover_s`` is their median,
#: since one recovery's shard spawns swing by a third on a shared host.
RECOVERIES = 3
STREAM_BUDGET = 400.0
#: Deliveries a streamed campaign consumes per service step
#: (``StreamSpec.events_per_step``'s default).
EVENTS_PER_STEP = 8
#: Distinct generated inputs per kind; campaigns cycle through them with
#: fresh names and expert-panel seeds.
BATCH_INPUTS = 6
STREAM_INPUTS = 12
POOL = 1e6
POLICY = ServicePolicy(slots=4, queue_limit=8)


@dataclass
class Inputs:
    batch: list
    #: ``(dataset, StreamSpec, deliveries)`` per streamed input.
    stream: list
    gen_s: float = 0.0


def generate(seed: int, batch_inputs: int = BATCH_INPUTS,
             stream_inputs: int = STREAM_INPUTS) -> Inputs:
    """Seeded datasets, stream specs and event logs; input ``i`` of a
    kind is the same whatever the counts asked for."""
    from repro.datasets.synthetic import WorkerPoolSpec, make_synthetic_dataset
    from repro.stream import (
        StreamChaos,
        StreamSpec,
        generate_event_stream,
        make_arrivals,
    )

    started = time.perf_counter()
    def seeds(kind: int, index: int, count: int) -> list[int]:
        state = np.random.SeedSequence([seed, kind, index])
        return [int(value) % 2**31 for value in state.generate_state(count)]

    batch = [
        make_synthetic_dataset(
            num_groups=160, group_size=8, answers_per_fact=6,
            pool=WorkerPoolSpec(num_preliminary=30,
                                num_expert=BATCH_EXPERTS),
            seed=seeds(0, index, 1)[0],
        )
        for index in range(batch_inputs)
    ]
    stream = []
    for index in range(stream_inputs):
        data_seed, stream_seed, chaos_seed = seeds(1, index, 3)
        dataset = make_synthetic_dataset(
            num_groups=5, group_size=3, answers_per_fact=6, seed=data_seed,
        )
        spec = StreamSpec(
            arrival="bursty", rate=200.0, votes_per_fact=3, group_size=3,
            target_votes=2, churn=0.1, seed=stream_seed,
            events_per_step=EVENTS_PER_STEP,
            chaos=StreamChaos(reorder=0.15, duplicate=0.1, stall=0.05,
                              seed=chaos_seed),
        )
        events = generate_event_stream(
            dataset, theta=spec.theta, votes_per_fact=spec.votes_per_fact,
            arrivals=make_arrivals(spec.arrival, spec.rate),
            seed=spec.seed, churn_rate=spec.churn, window=spec.window,
        )
        stream.append((dataset, spec, len(spec.chaos.plan_delivery(events))))
    return Inputs(batch, stream, time.perf_counter() - started)


@dataclass
class Step:
    campaign: str
    kind: str
    start: float
    seconds: float
    launched: tuple
    first: bool
    error: bool
    finished: bool = False
    events: int = 0


@dataclass
class Loop:
    """The closed loop's client side and its bookkeeping."""

    inputs: Inputs
    root: object
    archive: object
    seed: int
    spans: object = NO_SPANS
    speed: SpeedTrack = field(default_factory=SpeedTrack)
    service: object = None
    submitted: int = 0
    kind: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)
    handles: dict = field(default_factory=dict)
    in_flight: dict = field(default_factory=dict)  # (tenant, kind) -> id
    unlaunched: set = field(default_factory=set)
    stepped: set = field(default_factory=set)
    completed: list = field(default_factory=list)
    quarantined: set = field(default_factory=set)
    left: dict = field(default_factory=dict)  # stream id -> deliveries
    steps: list = field(default_factory=list)
    submit_s: list = field(default_factory=list)
    waits: list = field(default_factory=list)
    last_end: dict = field(default_factory=dict)
    journal_bytes: dict = field(default_factory=dict)
    deliveries: dict = field(default_factory=dict)  # stream id -> total
    results: dict = field(default_factory=dict)
    shard_bytes: float = 0.0
    shard_rounds: int = 0
    attempted: int = 0
    failed: int = 0

    def open(self) -> None:
        self.service = CampaignService(
            POOL, policy=POLICY, journal_root=self.root
        )

    def spec(self, tenant: str, kind: str) -> CampaignSpec:
        index = self.submitted
        self.submitted += 1
        # The n-th campaign of a kind uses that kind's input n (cycling).
        nth = sum(1 for name in self.kind.values() if name == kind)
        config_seed = int(
            np.random.SeedSequence([self.seed, index]).generate_state(1)[0]
        )
        if kind == "batch":
            return CampaignSpec(
                tenant=tenant, name=f"batch-{index}",
                dataset=self.inputs.batch[nth % len(self.inputs.batch)],
                config=SessionConfig(budget=BATCH_BUDGET, k=BATCH_K,
                                     seed=config_seed),
                jobs=BATCH_JOBS, inline=False,
            )
        dataset, stream, deliveries = self.inputs.stream[
            nth % len(self.inputs.stream)
        ]
        spec = CampaignSpec(
            tenant=tenant, name=f"stream-{index}", dataset=dataset,
            config=SessionConfig(budget=STREAM_BUDGET, seed=config_seed),
            stream=stream,
        )
        self.deliveries[spec.campaign_id] = deliveries
        return spec

    def submit(self, spec: CampaignSpec, kind: str) -> None:
        campaign_id = spec.campaign_id
        self.attempted += 1
        with self.spans.span("submit", self.submitted):
            started = time.perf_counter()
            try:
                handle = self.service.submit(spec)
            except ServiceError:
                self.failed += 1
                return
            self.submit_s.append(time.perf_counter() - started)
        self.kind[campaign_id] = kind
        self.specs[campaign_id] = spec
        self.handles[campaign_id] = handle
        self.in_flight[(spec.tenant, kind)] = campaign_id
        self.unlaunched.add(campaign_id)
        if kind == "stream":
            self.left[campaign_id] = self.deliveries[campaign_id]

    def submit_wave(self) -> None:
        for tenant in TENANTS:
            for kind in KINDS:
                self.submit(self.spec(tenant, kind), kind)

    def step(self):
        """One ``service.step()``; replaces a campaign that completes."""
        launching = tuple(sorted(self.unlaunched))
        step_id = len(self.steps)
        self.speed.tick()
        with self.spans.span("step", step_id) as span:
            started = time.perf_counter()
            info = self.service.step()
            ended = time.perf_counter()
        if info is None:
            span.rename("idle")
            return None
        self.unlaunched.difference_update(
            cid for cid in launching
            if self.service.status(cid) is not CampaignStatus.PENDING
        )
        campaign_id = info["campaign"]
        kind = self.kind[campaign_id]
        span.rename(f"step.{kind}")
        first = campaign_id not in self.stepped
        self.stepped.add(campaign_id)
        if campaign_id in self.last_end:
            self.waits.append(started - self.last_end[campaign_id])
        self.last_end[campaign_id] = ended
        self.attempted += 1
        record = Step(campaign_id, kind, started, ended - started,
                      launching, first, info["error"] is not None)
        if record.error:
            self.failed += 1
            if self.service.status(campaign_id) is CampaignStatus.QUARANTINED:
                self.quarantined.add(campaign_id)
                self._replace(campaign_id)
        elif kind == "stream":
            record.events = min(EVENTS_PER_STEP, self.left[campaign_id])
            self.left[campaign_id] -= record.events
        self.steps.append(record)
        record.finished = info["finished"]
        if info["finished"]:
            self._complete(campaign_id)
        return record

    def _complete(self, campaign_id: str) -> None:
        self.completed.append(campaign_id)
        self.results[campaign_id] = self.service.result(campaign_id)
        if OBS.enabled and self.kind[campaign_id] == "batch":
            # The pool publishes its transport totals as gauges when it
            # closes, which _finalize just did.
            import telemetry

            self.shard_bytes += telemetry.total(
                "repro_shard_transport_bytes_sent"
            ) + telemetry.total("repro_shard_transport_bytes_received")
            self.shard_rounds += self.handles[campaign_id].rounds
        path = self.handles[campaign_id].journal_path
        self.journal_bytes[campaign_id] = path.stat().st_size
        target = self.archive / path.relative_to(self.root)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(path, target)
        self._replace(campaign_id)

    def done(self, campaign_id: str) -> bool:
        return campaign_id in self.completed or campaign_id in self.quarantined

    def _replace(self, campaign_id: str) -> None:
        if self.kind[campaign_id] == "stream":
            tenant = self.specs[campaign_id].tenant
            self.submit(self.spec(tenant, "stream"), "stream")
            return
        # Batch replacements go in pairs, once both tenants' campaigns
        # are done, so the two batch campaigns always run in step.
        if all(self.done(self.in_flight[(tenant, "batch")])
               for tenant in TENANTS):
            for tenant in TENANTS:
                self.submit(self.spec(tenant, "batch"), "batch")

    def crash_point(self) -> bool:
        """Both in-flight batch campaigns have committed exactly
        ``CRASH_ROUND`` rounds."""
        return all(
            not self.done(self.in_flight[(tenant, "batch")])
            and self.handles[self.in_flight[(tenant, "batch")]].rounds
            == CRASH_ROUND
            for tenant in TENANTS
        )

    def rounds(self) -> int:
        """Batch rounds committed so far."""
        return sum(
            handle.rounds for cid, handle in self.handles.items()
            if self.kind[cid] == "batch"
        )

    def reference(self, step: Step) -> float:
        """The step's reference seconds (after a closing sample)."""
        return self.speed.scaled(step.start, step.start + step.seconds, PAD)


def first_wave(loop: Loop) -> None:
    """Submit the first wave and step until each campaign in it has run
    its first step: the end of ``durable``'s set-up."""
    loop.open()
    loop.submit_wave()
    waiting = set(loop.handles)
    while waiting:
        record = loop.step()
        if record is None:
            raise RuntimeError("service went idle during the first wave")
        waiting.discard(record.campaign)


def steady(loop: Loop, seconds: float | None, steps: int | None):
    """The steady window: ``seconds`` of stepping and then on to the
    crash point, or exactly ``steps`` steps when replaying a window."""
    started = time.perf_counter()
    rounds_before = loop.rounds()
    progress_before = progress(loop)
    first_step = len(loop.steps)
    while True:
        if steps is not None:
            if len(loop.steps) - first_step >= steps:
                break
        elif time.perf_counter() - started >= seconds and (
            loop.crash_point()
            or time.perf_counter() - started >= seconds + CRASH_GRACE_S
        ):
            break
        if loop.step() is None:
            raise RuntimeError("service went idle in the steady window")
    ended = time.perf_counter()
    loop.speed.sample()
    return {
        "wall": loop.speed.scaled(started, ended),
        "steps": loop.steps[first_step:],
        "rounds": loop.rounds() - rounds_before,
        "progress": progress(loop) - progress_before,
    }


def progress(loop: Loop) -> float:
    """Campaigns' worth of work done so far: completed campaigns plus the
    fraction of each in-flight one (rounds for batch, deliveries for
    stream), so the throughput does not jump by whole campaigns at the
    window's edges."""
    done = float(len(loop.completed))
    for (_tenant, kind), campaign_id in loop.in_flight.items():
        if loop.done(campaign_id):
            continue
        if kind == "batch":
            done += loop.handles[campaign_id].rounds / BATCH_ROUNDS
        else:
            done += 1.0 - (
                loop.left[campaign_id] / loop.deliveries[campaign_id]
            )
    return done


def crash_and_recover(loop: Loop) -> dict:
    """Close the service, recover a fresh one on the same root, resubmit
    the never-launched specs, and step until every reattached campaign
    has stepped once more."""
    launched = [
        campaign_id for campaign_id in loop.in_flight.values()
        if not loop.done(campaign_id) and campaign_id not in loop.unlaunched
    ]
    never = [cid for cid in loop.in_flight.values()
             if cid in loop.unlaunched]
    loop.service.ledger.audit(strict=True)
    loop.service.close()
    loop.open()
    loop.attempted += 1
    loop.speed.sample()
    with loop.spans.span("recover"):
        started = time.perf_counter()
        report = loop.service.recover(
            specs=[loop.specs[cid] for cid in launched]
        )
        swept = time.perf_counter()
        for campaign_id in never:
            loop.unlaunched.discard(campaign_id)
            loop.submit(loop.specs[campaign_id], loop.kind[campaign_id])
        waiting = {entry.campaign_id for entry in report.reattached}
        for campaign_id in waiting:
            loop.handles[campaign_id] = loop.service.handle(campaign_id)
        # A campaign quarantined on the way (its steps kept failing)
        # stops the wait too; its strikes are failed operations.
        while waiting - loop.quarantined:
            record = loop.step()
            if record is None:
                break
            if not record.error:
                waiting.discard(record.campaign)
        recovered = time.perf_counter()
    loop.speed.sample()
    bad = [entry for entry in report.campaigns
           if entry.outcome in ("failed", "reset")]
    loop.failed += len(bad)
    started_audit = time.perf_counter()
    loop.service.ledger.audit(strict=True)
    audit_ms = (time.perf_counter() - started_audit) * 1e3
    return {
        "interval": (started, recovered),
        "sweep_s": swept - started,
        "audit_ms": audit_ms,
        "outcomes": [entry.outcome for entry in report.campaigns],
        "failed_outcomes": [entry.outcome for entry in report.campaigns
                            if entry.outcome == "failed"],
        "stats": loop.service.stats(),
    }


def stop_resource_tracker() -> None:
    """Stop and wait for the resource-tracker process that the shard
    pools' shared memory started, so no process outlives the run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Coordinator peak RSS plus the largest shard worker's (children
    are counted once joined, so call this after the pools closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def round_steps(steps) -> list:
    """Steady batch rounds: batch steps that neither launched a campaign
    nor were a campaign's first step, and did not fail."""
    return [step for step in steps
            if step.kind == "batch" and not step.launched
            and not step.first and not step.error]


def end_to_end(loop, window, recovery, peak_mb, quality):
    """Every end-to-end metric but ``setup_s``, which the set-up probes
    measure."""
    rounds_ms = [loop.reference(step) * 1e3
                 for step in round_steps(window["steps"])]
    # Steady ingest: the step that finishes a streamed campaign drains
    # its remaining checking budget in one go and is left out.  The
    # median per-step rate keeps a step stalled on a slow fsync of the
    # shared disk from moving the figure.
    streamed = [step for step in window["steps"]
                if step.kind == "stream" and not step.launched
                and not step.error and not step.finished and step.events]
    return {
        "rounds_per_s": window["rounds"] / window["wall"],
        "round_p50_ms": statistics.median(rounds_ms),
        "round_p95_ms": p95(rounds_ms),
        "campaigns_per_min": window["progress"] / window["wall"] * 60.0,
        "events_per_s": statistics.median(
            step.events / loop.reference(step) for step in streamed
        ),
        "recover_s": recovery["recover_s"],
        "peak_rss_mb": peak_mb,
        "accuracy": quality["accuracy"],
        "quality_bits": quality["quality_bits"],
    }


def batch_quality(loop: Loop) -> dict:
    """Mean final accuracy and quality gain of the completed batch
    campaigns (fixed budget, fixed fact set)."""
    finals = [loop.results[cid] for cid in loop.completed
              if loop.kind[cid] == "batch"]
    return {
        "accuracy": statistics.fmean(r.history[-1].accuracy for r in finals),
        "quality_bits": statistics.fmean(
            r.history[-1].quality - r.history[0].quality for r in finals
        ),
    }


def solo_mismatches(loop: Loop) -> list:
    """Completed batch campaigns whose result differs from the same
    campaign run solo in-process: same selections, same spend
    trajectory, same labels, beliefs within 1e-9."""
    from repro.engine import run_parallel_hc_session

    bad = []
    for campaign_id in loop.completed:
        if loop.kind[campaign_id] != "batch":
            continue
        spec = loop.specs[campaign_id]
        hosted = loop.results[campaign_id]
        solo = run_parallel_hc_session(
            spec.dataset,
            SessionConfig(budget=spec.config.budget, k=spec.config.k,
                          seed=spec.config.seed),
            jobs=1, inline=True,
        )
        same = (
            [r.query_fact_ids for r in hosted.history]
            == [r.query_fact_ids for r in solo.history]
            and [r.budget_spent for r in hosted.history]
            == [r.budget_spent for r in solo.history]
            and hosted.final_labels == solo.final_labels
            and all(
                np.allclose(a.probabilities, b.probabilities,
                            rtol=0.0, atol=1e-9)
                for a, b in zip(hosted.belief, solo.belief)
            )
        )
        if not same:
            bad.append(campaign_id)
    return bad


def journal_paths(loop: Loop) -> list:
    return sorted(loop.root.rglob("*.jsonl")) + sorted(
        loop.archive.rglob("*.jsonl")
    )


def verify_all(loop: Loop) -> tuple[float, list]:
    from repro.storage.integrity import verify_journal

    damaged = []
    started = time.perf_counter()
    for path in journal_paths(loop):
        if verify_journal(path).damage:
            damaged.append(str(path))
    return time.perf_counter() - started, damaged


def append_probe(loop: Loop, workdir) -> float:
    """Median ms to append the run's last batch checkpoint record to a
    scratch journal."""
    from repro.core.serialization import (
        FORMAT_VERSION,
        append_journal_record,
        read_journal,
    )

    batch = [path for path in journal_paths(loop)
             if path.stem.startswith("batch-")]
    latest = max(batch, key=lambda path: path.stat().st_mtime)
    record = [r for r in read_journal(latest) if r["kind"] == "checkpoint"][-1]
    journal = workdir / "probe.jsonl"
    append_journal_record(journal, {"kind": "header",
                                    "version": FORMAT_VERSION})
    times = []
    for _ in range(3):
        started = time.perf_counter()
        append_journal_record(journal, record)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def batch_journal_bytes_per_round(loop: Loop) -> float:
    total_bytes = total_rounds = 0
    for campaign_id, kind in loop.kind.items():
        if kind != "batch":
            continue
        if campaign_id in loop.journal_bytes:
            total_bytes += loop.journal_bytes[campaign_id]
        else:
            path = loop.handles[campaign_id].journal_path
            total_bytes += path.stat().st_size if path.exists() else 0
        total_rounds += loop.handles[campaign_id].rounds
    return total_bytes / max(1, total_rounds)


def run(seed: int, seconds: float, traced: bool, workdir) -> dict:
    """One run of ``durable``; see the module docstring."""
    from repro.engine.ledger import LedgerDriftError

    import telemetry
    from spans import Spans

    inputs = generate(seed)
    base_window = None
    if traced:
        # The untraced window first, then the same steps traced: the
        # difference is the tracing overhead.
        base = Loop(inputs, workdir / "base" / "journals",
                    workdir / "base" / "archive", seed)
        first_wave(base)
        base_window = steady(base, seconds, None)
        base.service.close()
        shutil.rmtree(workdir / "base")
        telemetry.enable()
        loop = Loop(inputs, workdir / "journals", workdir / "archive", seed,
                    spans=Spans())
        first_wave(loop)
        before = telemetry.counters()
        window = steady(loop, None, len(base_window["steps"]))
        # OBS totals of the steady window alone, as the spans compared
        # with them are.
        obs = {
            key: value - before.get(key, 0.0)
            for key, value in telemetry.counters().items()
        }
        phases = {name: obs[f"phase.{name}"] for name in telemetry.PHASES}
    else:
        loop = Loop(inputs, workdir / "journals", workdir / "archive", seed)
        first_wave(loop)
        window = steady(loop, seconds, None)
    bytes_per_round = batch_journal_bytes_per_round(loop)
    before_crash = loop.service.stats()
    checks = []
    recoveries = []
    try:
        for cycle in range(RECOVERIES):
            if cycle:
                steady(loop, 0.0, None)  # on to the next crash point
            recoveries.append(crash_and_recover(loop))
        ledger_clean = True
    except LedgerDriftError as error:
        ledger_clean = False
        checks.append(("strict ledger audit is clean", False, str(error)))
    loop.service.close()
    if not ledger_clean:
        return {"checks": checks, "attempted": loop.attempted,
                "failed": loop.failed}
    recovery = {
        # Each recovery's time is scaled by the host's speed within a
        # second of it: its first step blocks on shard spawns, so no
        # sample falls inside.
        "recover_s": statistics.median(
            loop.speed.scaled(*entry["interval"], 1.0)
            for entry in recoveries
        ),
        "sweep_s": statistics.median(e["sweep_s"] for e in recoveries),
        "audit_ms": statistics.median(e["audit_ms"] for e in recoveries),
        "outcomes": [o for e in recoveries for o in e["outcomes"]],
        "failed_outcomes": [
            o for e in recoveries for o in e["failed_outcomes"]
        ],
    }
    peak_mb = peak_rss_mb()
    if traced:
        obs_round = telemetry.contained("round", [
            (step.start, step.start + step.seconds)
            for step in window["steps"] if not step.launched
        ])

    verify_s, damaged = verify_all(loop)
    started = time.perf_counter()
    mismatched = solo_mismatches(loop)
    solo_s = time.perf_counter() - started
    checks += [
        ("strict ledger audit is clean", ledger_clean, ""),
        ("every journal passes verify_journal", not damaged,
         ", ".join(damaged)),
        ("no recovery outcome is failed", not recovery["failed_outcomes"],
         ", ".join(recovery["outcomes"])),
        ("completed batch campaigns equal their solo runs", not mismatched,
         ", ".join(mismatched)),
    ]
    batch_done = [cid for cid in loop.completed if loop.kind[cid] == "batch"]
    checks.append(("at least one batch campaign completed",
                   bool(batch_done), f"{len(batch_done)} completed"))
    out = {
        "checks": checks,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "notes": [
            f"window {window['wall']:.2f} reference s: "
            f"{len(window['steps'])} steps, "
            f"{len(round_steps(window['steps']))} steady batch rounds, "
            f"{len(loop.completed)} campaigns completed in the run",
            f"checks: verify {verify_s:.2f}s, solo runs {solo_s:.2f}s",
            f"quarantined: {', '.join(sorted(loop.quarantined)) or 'none'}",
            f"recovery: sweep {recovery['sweep_s']:.3f}s of "
            f"{recovery['recover_s']:.3f}s; outcomes "
            f"{', '.join(recovery['outcomes'])}",
        ],
    }
    if not batch_done:
        return out
    quality = batch_quality(loop)
    out["end_to_end"] = end_to_end(loop, window, recovery, peak_mb, quality)
    if not traced:
        return out

    from repro.aggregation.registry import make_aggregator
    from repro.core.hc import labeling_accuracy, total_quality
    from repro.datasets.grouping import initialize_belief

    import checking

    started = time.perf_counter()
    initialize_belief(inputs.batch[0], make_aggregator("EBCC"), 0.9)
    init_s = time.perf_counter() - started
    # The bookkeeping each round's record repeats, timed on the completed
    # batch beliefs and charged to the window's batch rounds.
    records = []
    for campaign_id in batch_done:
        truth = loop.specs[campaign_id].dataset.ground_truth
        started = time.perf_counter()
        total_quality(loop.results[campaign_id].belief)
        labeling_accuracy(loop.results[campaign_id].belief, truth)
        records.append(time.perf_counter() - started)
    record_s = statistics.fmean(records) * window["rounds"]
    last = loop.specs[batch_done[-1]]
    kernels = checking.kernel_probes(
        loop.results[batch_done[-1]].belief,
        last.dataset.split_crowd(0.9)[0], BATCH_K, seed,
    )
    restarts = telemetry.total("repro_supervisor_restarts_total")
    out["failed"] += int(restarts)
    steps = window["steps"]
    batch_s = sum(s.seconds for s in steps if s.kind == "batch")
    stream_s = sum(s.seconds for s in steps if s.kind == "stream")
    # Batch campaigns launch in pairs: a launching step's time is shared
    # by the campaigns it launched.
    launches = [s.seconds / len(s.launched) for s in loop.steps
                if any(loop.kind[cid] == "batch" for cid in s.launched)]
    stats = [before_crash] + [entry["stats"] for entry in recoveries]
    admission = [entry["admission"] for entry in stats]
    evaluations = sum(
        obs[f"selection.{key}"]
        for key in ("entropy_evaluations", "prior_evaluations",
                    "batch_evaluations", "sampled_evaluations")
    )
    busy = [value for key, value in obs.items() if key.startswith("busy.")]
    events = sum(s.events for s in steps)
    base_s = statistics.median(
        base.reference(s) for s in round_steps(base_window["steps"])
    )
    layer = {
        "aggregation.init_s": init_s,
        "core.selection.busy_s": phases["select"],
        "core.selection.gain_evals": evaluations,
        "core.selection.pops_per_pick": obs["selection.heap_pops"]
        / max(1.0, obs["selection.rounds"]),
        "core.update.busy_s": phases["update"],
        "core.hc.record_s": record_s,
        "core.entropy.first_step_gains_us": kernels["gains"],
        "core.entropy.conditional_entropy_us": kernels["entropy"],
        "core.update.update_with_family_us": kernels["update"],
        "simulation.oracle.busy_s": phases["collect"],
        "service.submit_ms": statistics.median(loop.submit_s) * 1e3,
        "service.wait_p95_ms": float(np.percentile(loop.waits, 95)) * 1e3,
        "service.step_batch_busy_s": batch_s,
        "service.step_stream_busy_s": stream_s,
        "service.first_step_ms": statistics.median(launches) * 1e3,
        "storage.journal_bytes_per_round": bytes_per_round,
        "storage.append_ms": append_probe(loop, workdir),
        "storage.recover_sweep_s": recovery["sweep_s"],
        "storage.verify_s": verify_s,
        "engine.ledger.audit_ms": recovery["audit_ms"],
        "service.strikes": sum(
            campaign["strikes"] for entry in stats
            for campaign in entry["campaigns"].values()
        ),
        "service.rejected": sum(
            value for entry in admission for key, value in entry.items()
            if key.startswith("rejected")
        ),
        "service.shed": sum(entry["shed"] for entry in admission),
        "engine.supervisor.restarts": restarts,
        **{f"obs.phase.{name}_s": phases[name] for name in telemetry.PHASES},
        "engine.shards.dispatch_s": obs["dispatch_s"],
        "engine.shards.bytes": loop.shard_bytes / max(1, loop.shard_rounds),
        "engine.shards.busy_skew": (
            max(busy) / (sum(busy) / len(busy)) if sum(busy) > 0 else 0.0
        ),
        "stream.admit_ratio": obs["stream.admitted"] / max(1, events),
        "stream.forced_seals": obs["stream.forced_seals"],
        "stream.late_dropped": obs["stream.late_dropped"],
        "bench.trace_overhead": statistics.median(
            loop.reference(s) for s in round_steps(steps)
        ) / base_s - 1.0,
    }
    steady_s = sum(s.seconds for s in steps if not s.launched)
    out["layer"] = layer
    out["notes"] += ["OBS cross-check (steady steps vs OBS round spans):"]
    out["notes"] += telemetry.cross_check([
        ("service.step/round", steady_s, obs_round),
    ])
    window_s = batch_s + stream_s
    out["notes"] += [
        telemetry.layer_shares(
            window_s, phases["select"], phases["update"] + phases["commit"],
            record_s, phases["journal"], obs["dispatch_s"],
        ),
        "OBS phases' shares of step time: " + ", ".join(
            f"{name} {phases[name] / window_s:.1%}" for name in telemetry.PHASES
        ),
    ]
    out["spans"] = loop.spans
    OBS.reset()
    return out
