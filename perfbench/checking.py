"""The ``paper`` and ``wide`` workloads: serial in-process checking campaigns.

Both drive the paper's select -> ask CE -> Lemma-3 update loop through
the public sans-IO session (``OnlineCheckingSession.next_queries`` /
``submit``) and the simulated answer source's ``collect``, one campaign
after another at a fixed budget, with expert latency zero.

``paper``  200 tasks x 5 facts, 40 preliminary + 3 expert workers,
           theta 0.9, EBCC initialisation, k = 1, budget 1000 — many
           small groups, so per-call overhead, CELF upkeep and the
           per-round bookkeeping over every group dominate.
``wide``   3 dense 18-fact groups with a seeded Dirichlet joint and
           random truth, experts (0.92, 0.95), k = 4, budget 96 — the
           Table III regime, where entropy and kernel work over 2^18
           states dominates and bookkeeping is nearly absent.

Only the imports at the top of this module are on the set-up path; the
input generators and the end-of-run probes import what they need
inside, so their imports are not charged to set-up time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import LazyGreedySelector
from repro.datasets.grouping import initialize_belief
from repro.aggregation.registry import make_aggregator
from repro.simulation.online import OnlineCheckingSession
from repro.simulation.oracle import SimulatedExpertPanel

from spans import NO_SPANS, Spans
from speed import PAD, REFERENCE_S, p95


@dataclass(frozen=True)
class CheckingShape:
    k: int
    budget: float
    #: Floor on the mean final accuracy at the fixed budget.  Runs at
    #: the seed commit sit well above it (see README.md).
    accuracy_floor: float
    #: Input instances per run.  Campaigns cycle through them, so the
    #: reported accuracy and quality average over several datasets
    #: instead of riding on one seed's.
    instances: int


SHAPES = {
    "paper": CheckingShape(k=1, budget=1000.0, accuracy_floor=0.97,
                           instances=8),
    "wide": CheckingShape(k=4, budget=96.0, accuracy_floor=0.85,
                          instances=8),
}

THETA = 0.9

#: Per-layer metrics of the layers these workloads bypass; they read 0.
BYPASSED = (
    "service.submit_ms", "service.wait_p95_ms", "service.step_batch_busy_s",
    "service.step_stream_busy_s", "service.first_step_ms",
    "storage.journal_bytes_per_round", "storage.recover_sweep_s",
    "engine.ledger.audit_ms", "service.strikes", "service.rejected",
    "service.shed", "engine.supervisor.restarts", "engine.shards.dispatch_s",
    "engine.shards.bytes", "engine.shards.busy_skew", "stream.admit_ratio",
    "stream.forced_seals", "stream.late_dropped",
)
WIDE_GROUPS = 3
WIDE_FACTS = 18
WIDE_EXPERTS = (0.92, 0.95)


@dataclass
class Instance:
    """What the program receives for one campaign: a belief (or the
    dataset it is initialised from), the expert crowd and the truth."""

    truth: dict
    experts: object
    dataset: object = None
    belief: object = None


def generate(workload: str, seed: int, count: int):
    """``count`` seeded instances and the seconds generating them took;
    instance ``i`` is the same whatever ``count``."""
    started = time.perf_counter()
    instances = [
        _instance(workload, derive(seed, 1, index))
        for index in range(count)
    ]
    return instances, time.perf_counter() - started


def _instance(workload: str, seed: int) -> Instance:
    if workload == "paper":
        from repro.datasets.synthetic import make_synthetic_dataset
        from repro.experiments.config import EXPERIMENT_POOL

        dataset = make_synthetic_dataset(
            num_groups=200, group_size=5, answers_per_fact=8,
            pool=EXPERIMENT_POOL, seed=seed,
        )
        return Instance(
            truth=dict(dataset.ground_truth),
            experts=dataset.split_crowd(THETA)[0],
            dataset=dataset,
        )
    from repro.core.facts import FactSet
    from repro.core.observations import BeliefState, FactoredBelief
    from repro.core.workers import Crowd

    # The joint is built as experiments.table3.make_timing_belief builds
    # its single group, with disjoint fact ids per group.
    rng = np.random.default_rng(seed)
    states, truth = [], {}
    for group in range(WIDE_GROUPS):
        ids = range(group * WIDE_FACTS, (group + 1) * WIDE_FACTS)
        weights = rng.dirichlet(np.ones(1 << WIDE_FACTS))
        states.append(BeliefState(FactSet.from_ids(ids), weights))
        bits = rng.random(WIDE_FACTS) < 0.5
        truth.update({fact: bool(bit) for fact, bit in zip(ids, bits)})
    return Instance(
        truth=truth,
        experts=Crowd.from_accuracies(list(WIDE_EXPERTS), prefix="e"),
        belief=FactoredBelief(states),
    )


def derive(*keys: int) -> int:
    """A seed drawn from ``keys`` (the run seed, a stream id, an index)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def initialize(instance: Instance):
    """Algorithm 3 lines 1-2 for ``paper``; the given joint for ``wide``."""
    if instance.belief is None:
        instance.belief, _ = initialize_belief(
            instance.dataset, make_aggregator("EBCC"), THETA
        )
    return instance.belief


@dataclass
class Campaign:
    #: Per round: perf_counter stamps at start, after select, after
    #: collect and after submit.
    rounds: list = field(default_factory=list)
    picks: list = field(default_factory=list)
    accuracy: float = 0.0
    quality_gain: float = 0.0
    spent: float = 0.0
    answers: int = 0
    evaluations: int = 0
    heap_pops: int = 0
    failed: int = 0
    session: object = None


def run_campaign(shape, instance, seed, spans, speed, campaign_id, probe):
    """One campaign to budget exhaustion.  ``probe`` adds the traced
    run's ``record`` span: the bookkeeping ``submit`` repeats, timed
    after each round outside the round span."""
    from repro.core.hc import labeling_accuracy, total_quality

    selector = LazyGreedySelector()
    experts, truth = instance.experts, instance.truth
    session = OnlineCheckingSession(
        instance.belief, experts, shape.budget, selector=selector,
        k=shape.k, ground_truth=truth,
    )
    panel = SimulatedExpertPanel(truth, rng=seed)
    result = Campaign(session=session)
    clock = time.perf_counter
    with spans.span("campaign", campaign_id):
        while True:
            round_id = len(result.rounds)
            speed.tick()
            with spans.span("round", round_id) as round_span:
                started = clock()
                with spans.span("select", round_id):
                    queries = session.next_queries()
                selected = clock()
                if queries is None:
                    round_span.rename("finish")
                    break
                try:
                    with spans.span("collect", round_id):
                        family = panel.collect(queries, experts)
                    collected = clock()
                    with spans.span("submit", round_id):
                        session.submit(family)
                except Exception:
                    # A round that raises is a failed operation; the
                    # campaign ends there and the run goes on.
                    traceback.print_exc()
                    result.failed += 1
                    break
                submitted = clock()
            result.rounds.append((started, selected, collected, submitted))
            result.picks.append(tuple(queries))
            result.answers += len(queries) * len(experts)
            if probe:
                with spans.span("record", round_id):
                    total_quality(session.belief)
                    labeling_accuracy(session.belief, truth)
    result.accuracy = session.history[-1].accuracy
    result.quality_gain = (
        session.history[-1].quality - session.history[0].quality
    )
    result.spent = session.spent_budget
    result.evaluations = selector.stats.total_evaluations
    result.heap_pops = selector.stats.heap_pops
    return result


def run_pass(shape, instances, seed, spans, speed, seconds=None,
             count=None):
    """Campaigns back to back until ``seconds`` have passed (checked at
    campaign boundaries, so the window holds whole campaigns) or
    ``count`` campaigns have run.  Returns the campaigns and the
    window's reference seconds."""
    campaigns = []
    started = time.perf_counter()
    while True:
        index = len(campaigns)
        if campaigns:
            campaigns[-1].session = None  # keep only the last belief
        campaigns.append(run_campaign(
            shape, instances[index % len(instances)],
            derive(seed, 0, index), spans, speed, index,
            probe=spans.enabled,
        ))
        ended = time.perf_counter()
        if count is not None and len(campaigns) >= count:
            break
        if count is None and ended - started >= seconds:
            break
    speed.sample()
    return campaigns, speed.scaled(started, ended)


def timings(campaigns, speed) -> list:
    """Reference seconds per round: (select, collect, submit, round)."""
    out = []
    for campaign in campaigns:
        for started, selected, collected, submitted in campaign.rounds:
            scale = speed.scaled(started, submitted, PAD) / (
                submitted - started
            )
            out.append((
                (selected - started) * scale,
                (collected - selected) * scale,
                (submitted - collected) * scale,
                (submitted - started) * scale,
            ))
    return out


def digest(campaigns) -> str:
    text = json.dumps([campaign.picks for campaign in campaigns])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(campaigns, rounds, wall, recover_s, peak_rss_mb):
    """Every end-to-end metric but ``setup_s``, which the set-up probes
    measure."""
    round_ms = [entry[3] * 1e3 for entry in rounds]
    submit_s = sum(entry[2] for entry in rounds)
    return {
        "rounds_per_s": len(rounds) / wall,
        "round_p50_ms": statistics.median(round_ms),
        "round_p95_ms": p95(round_ms),
        "campaigns_per_min": len(campaigns) / wall * 60.0,
        "events_per_s": sum(c.answers for c in campaigns) / submit_s,
        "recover_s": recover_s,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": statistics.fmean(c.accuracy for c in campaigns),
        "quality_bits": statistics.fmean(c.quality_gain for c in campaigns),
    }


def checkpoint_probes(shape, instance, seed, speed, workdir, journal):
    """Resume-from-checkpoint time plus, with ``journal``, the journal
    probes, on a checkpoint taken halfway through one extra campaign.

    ``recover_s`` is the in-process analogue of the service's recovery:
    parse the checkpoint, rebuild the session, commit one more round.
    """
    from repro.core.serialization import FORMAT_VERSION, append_journal_record
    from repro.storage.integrity import verify_journal

    experts, truth = instance.experts, instance.truth
    session = OnlineCheckingSession(
        instance.belief, experts, shape.budget,
        selector=LazyGreedySelector(), k=shape.k, ground_truth=truth,
    )
    panel = SimulatedExpertPanel(truth, rng=derive(seed, 2))
    while session.spent_budget < shape.budget / 2:
        session.submit(panel.collect(session.next_queries(), experts))
    checkpoint = session.to_checkpoint()
    text = json.dumps(checkpoint)
    panel_state = json.dumps(panel.get_state())

    recover = []
    # At least 8 restores and 3 s of them (a restore of a paper-sized
    # checkpoint takes about 15 ms, one of a wide one 0.3 s or more); the
    # median is scaled by the host's speed over all of them.
    speed.sample()
    probing = time.perf_counter()
    while len(recover) < 8 or time.perf_counter() - probing < 3.0:
        restored_panel = SimulatedExpertPanel(truth)
        restored_panel.set_state(json.loads(panel_state))
        # Every restore starts from the same collected heap, so the
        # garbage collector's passes over it cost the same each time.
        gc.collect()
        started = time.perf_counter()
        restored = OnlineCheckingSession.from_checkpoint(
            json.loads(text), experts, selector=LazyGreedySelector()
        )
        queries = restored.next_queries()
        restored.submit(restored_panel.collect(queries, experts))
        recover.append(time.perf_counter() - started)
        speed.sample()
    probes = {"recover_s": statistics.median(recover) * REFERENCE_S
              / speed.kernel_mean(probing, time.perf_counter())}
    if not journal:
        return probes
    path = workdir / "probe.jsonl"
    append_journal_record(path, {"kind": "header", "version": FORMAT_VERSION})
    appends = []
    for _ in range(3):
        started = time.perf_counter()
        append_journal_record(
            path, {"kind": "checkpoint", "session": checkpoint}
        )
        appends.append(time.perf_counter() - started)
    started = time.perf_counter()
    report = verify_journal(path)
    probes["verify_s"] = time.perf_counter() - started
    probes["append_ms"] = statistics.median(appends) * 1e3
    probes["verify_ok"] = not report.damage
    return probes


def kernel_probes(belief, experts, k, seed):
    """Per-call microseconds of the round's kernels on end-of-run group
    states: first-step gains, the Eq. 34 conditional entropy of a k-fact
    query set (fewer facts when the exact answer-family space of k facts
    would be too large), and the Lemma-3 family update."""
    from repro.core.entropy import (
        MAX_FAMILY_BITS,
        conditional_entropy,
        first_step_gains,
    )
    from repro.core.update import update_with_family

    panel = SimulatedExpertPanel(
        {fact: True for fact in belief.fact_ids}, rng=seed
    )
    size = max(1, min(k, MAX_FAMILY_BITS // len(experts)))
    timings = {"gains": [], "entropy": [], "update": []}
    clock = time.perf_counter
    for state in belief:
        query = [fact.fact_id for fact in state.facts][:size]
        family = panel.collect(query, experts)
        started = clock()
        first_step_gains(state, experts)
        gained = clock()
        conditional_entropy(state, query, experts)
        entropied = clock()
        update_with_family(state, family)
        updated = clock()
        timings["gains"].append(gained - started)
        timings["entropy"].append(entropied - gained)
        timings["update"].append(updated - entropied)
    return {
        name: statistics.median(values) * 1e6
        for name, values in timings.items()
    }



def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir) -> dict:
    """One run of ``paper`` or ``wide``; see the module docstring."""
    import resource

    import telemetry

    from speed import SpeedTrack

    shape = SHAPES[workload]
    instances, _ = generate(workload, seed, shape.instances)
    fits = []
    for instance in instances:
        started = time.perf_counter()
        initialize(instance)
        fits.append(time.perf_counter() - started)
    init_s = statistics.median(fits) if workload == "paper" else 0.0

    speed = SpeedTrack()
    campaigns, wall = run_pass(shape, instances, seed, NO_SPANS, speed,
                               seconds=seconds)
    rounds_s = timings(campaigns, speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(campaign.failed for campaign in campaigns)
    rounds = sum(len(campaign.rounds) for campaign in campaigns)
    accuracy = statistics.fmean(c.accuracy for c in campaigns)
    checks = [
        ("spend stays within the budget",
         all(c.spent <= shape.budget for c in campaigns),
         f"max {max(c.spent for c in campaigns)} of {shape.budget}"),
        ("no fact is queried twice in one round",
         all(len(set(p)) == len(p) for c in campaigns for p in c.picks), ""),
        (f"mean accuracy >= {shape.accuracy_floor}",
         accuracy >= shape.accuracy_floor, f"{accuracy:.4f}"),
    ]
    out = {
        "attempted": rounds + failed + len(campaigns),
        "failed": failed,
        "checks": checks,
        "notes": [
            f"window {wall:.2f} reference s: {len(campaigns)} campaigns, "
            f"{rounds} "
            f"rounds, selection digest {digest(campaigns)}",
        ],
    }
    if traced:
        telemetry.enable()
        spans = Spans()
        replay, _ = run_pass(shape, instances, seed, spans, speed,
                             count=len(campaigns))
        phases = telemetry.phase_totals()
        telemetry.OBS.reset()
    else:
        replay, _ = run_pass(shape, instances, seed, NO_SPANS, speed,
                             count=1)
    checks.append((
        "the same seed gives the same selection digest",
        digest(replay) == digest(campaigns[:len(replay)]),
        digest(replay),
    ))
    probes = checkpoint_probes(shape, instances[0], seed, speed, workdir,
                               journal=traced)
    out["end_to_end"] = end_to_end(campaigns, rounds_s, wall,
                                   probes["recover_s"], peak_mb)
    if not traced:
        return out

    checks.append(("the probe journal passes verify_journal",
                   probes["verify_ok"], ""))
    kernels = kernel_probes(replay[-1].session.belief,
                            replay[-1].session.experts, shape.k, seed)
    untraced = statistics.median(entry[3] for entry in rounds_s)
    traced_s = statistics.median(
        entry[3] for entry in timings(replay, speed)
    )
    picks = sum(len(p) for c in replay for p in c.picks)
    select_s = spans.total("select")
    submit_s = spans.total("submit")
    record_s = spans.total("record")
    out["layer"] = {
        **dict.fromkeys(BYPASSED, 0.0),
        "aggregation.init_s": init_s,
        "core.selection.busy_s": select_s,
        "core.selection.gain_evals": sum(c.evaluations for c in replay),
        "core.selection.pops_per_pick": sum(c.heap_pops for c in replay)
        / picks,
        "core.update.busy_s": submit_s,
        "core.hc.record_s": record_s,
        "core.entropy.first_step_gains_us": kernels["gains"],
        "core.entropy.conditional_entropy_us": kernels["entropy"],
        "core.update.update_with_family_us": kernels["update"],
        "simulation.oracle.busy_s": spans.total("collect"),
        "storage.append_ms": probes["append_ms"],
        "storage.verify_s": probes["verify_s"],
        **{f"obs.phase.{name}_s": phases[name] for name in telemetry.PHASES},
        "bench.trace_overhead": (traced_s - untraced) / untraced,
    }
    own = spans.self_totals()
    round_s = spans.total("round")
    out["notes"] += [
        "round span = " + " + ".join(
            f"{name} {own.get(name, 0.0) / round_s:.1%}"
            for name in ("select", "collect", "submit")
        ) + f" + own {own.get('round', 0.0) / round_s:.2%} "
        f"(record probe outside the round: {record_s / round_s:.1%})",
        telemetry.layer_shares(round_s, select_s, submit_s, record_s,
                               0.0, 0.0),
        "OBS cross-check (benchmark spans vs OBS phase totals):",
        *telemetry.cross_check([
            ("select", select_s, phases["select"]),
            ("submit - record", submit_s - record_s, phases["update"]),
        ]),
    ]
    out["spans"] = spans
    return out
