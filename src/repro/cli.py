"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate
    Write a synthetic sentiment dataset as ``answer.csv``/``truth.csv``.
describe
    Print summary statistics of a dataset directory.
aggregate
    Run a truth-inference method on an answer file and report accuracy.
session
    Run the full HC pipeline on a dataset directory and print the
    budget/accuracy/quality trajectory.
serve
    Host many campaigns at once on the multi-tenant campaign service
    (shared budget pool, admission control, weighted-fair scheduling)
    and print the per-tenant service report.  ``--stream`` runs each
    campaign from a delivered event log with backpressure.
stream
    Run one streamed campaign: seeded event-log delivery (optionally
    degraded by chaos), watermark admission, incremental group
    formation, and exactly-once journal resume via ``--resume``.
metrics
    Pretty-print a ``--metrics-out`` JSON snapshot: per-phase latency
    attribution (select/collect/update/commit/journal/scheduler-wait,
    p50/p95/p99) and counter totals.
reproduce
    Regenerate the paper's figures and Table III (delegates to
    :mod:`repro.experiments.reproduce`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .aggregation import available_aggregators, make_aggregator
from .datasets import load_dataset, make_sentiment_dataset, save_dataset
from .datasets.synthetic import WorkerPoolSpec
from .simulation import SessionConfig, run_hc_session


def _cmd_generate(args: argparse.Namespace) -> int:
    pool = WorkerPoolSpec(
        num_preliminary=args.preliminary_workers,
        num_expert=args.expert_workers,
    )
    dataset = make_sentiment_dataset(
        num_groups=args.groups,
        group_size=args.group_size,
        answers_per_fact=args.answers,
        pool=pool,
        seed=args.seed,
    )
    answer_path, truth_path = save_dataset(dataset, args.out)
    print(f"wrote {answer_path} ({dataset.annotations.num_annotations} "
          f"annotations) and {truth_path} ({dataset.num_facts} facts)")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .datasets import describe_dataset, format_summary

    dataset = load_dataset(
        Path(args.data) / "answer.csv",
        Path(args.data) / "truth.csv",
        group_size=args.group_size,
    )
    print(format_summary(describe_dataset(dataset, theta=args.theta)))
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    dataset = load_dataset(
        Path(args.data) / "answer.csv",
        Path(args.data) / "truth.csv",
        group_size=args.group_size,
    )
    aggregator = make_aggregator(args.method)
    result = aggregator.fit(dataset.annotations)
    accuracy = result.accuracy(dataset.truth_vector())
    print(f"{aggregator.name}: accuracy {accuracy:.4f} "
          f"({result.iterations} iterations, "
          f"converged={result.converged})")
    return 0


def _start_observability(args: argparse.Namespace) -> None:
    """Enable tracing/metrics when any consumer flag was given.

    Observability never perturbs a run (no RNG, no journal bytes — see
    :mod:`repro.obs`), so enabling is purely additive; with no flag
    the hot paths keep their single disabled-check cost.  ``serve
    --health-every`` needs the registry populated even without a
    snapshot destination — the health line reads p95 round latency
    from it.
    """
    if (
        args.metrics_out
        or args.trace_out
        or getattr(args, "health_every", 0)
    ):
        from .obs import OBS

        OBS.enable(trace_path=args.trace_out)


def _finish_observability(args: argparse.Namespace) -> None:
    if args.metrics_out or args.trace_out:
        from .obs import OBS

        OBS.flush(args.metrics_out)
        if args.metrics_out:
            print(f"metrics snapshot: {args.metrics_out}")
        if args.trace_out:
            print(f"trace: {args.trace_out}")


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Pretty-print a ``--metrics-out`` snapshot."""
    from .obs import (
        format_report,
        latency_report,
        load_snapshot,
        render_prometheus,
    )

    try:
        snapshot = load_snapshot(args.snapshot)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.prometheus:
        print(render_prometheus(snapshot), end="")
        return 0
    print(format_report(latency_report(snapshot)))
    counters = {
        name: sum(series["value"] for series in family["series"])
        for name, family in sorted(snapshot["metrics"].items())
        if family["type"] == "counter"
    }
    if counters:
        print("counters:")
        for name, total in counters.items():
            print(f"  {name:<44} {total:,.0f}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from .simulation import FaultModel

    _start_observability(args)
    dataset = load_dataset(
        Path(args.data) / "answer.csv",
        Path(args.data) / "truth.csv",
        group_size=args.group_size,
    )
    faults = (
        FaultModel.parse(args.faults, seed=args.seed)
        if args.faults
        else None
    )
    trust_policy = None
    if args.trust:
        from .core.trust import TrustPolicy

        trust_policy = TrustPolicy(
            probe_rate=args.probe_rate,
            quarantine_lcb=args.quarantine_lcb,
            seed=args.seed,
        )
    from .core.selection import make_selector

    selector = make_selector(args.selector, seed=args.seed)
    if args.attach:
        result = _attach_session(args, dataset, faults)
        if result is None:
            return 2
    elif args.resume:
        result = _resume_session(args, dataset, faults, selector)
    else:
        config = SessionConfig(
            theta=args.theta,
            k=args.k,
            budget=args.budget,
            initializer=args.initializer,
            seed=args.seed,
            faults=faults,
            journal_path=args.journal,
            trust_policy=trust_policy,
            belief_epsilon=_belief_epsilon(args),
        )
        result = run_hc_session(dataset, config, selector=selector)
    stats = getattr(selector, "stats", None)
    if stats is not None and args.selector_stats:
        print(
            f"selector[{args.selector}]: rounds={stats.rounds} "
            f"evaluations={stats.total_evaluations} "
            f"(scalar={stats.entropy_evaluations}, "
            f"batch={stats.batch_evaluations} over {stats.batch_facts} "
            f"facts, heap_pops={stats.heap_pops})"
        )
    trust = getattr(result, "trust", None)
    if trust is not None:
        print(
            f"trust: quarantines={trust.quarantines} "
            f"readmissions={trust.readmissions}"
        )
        for summary in trust.workers:
            print(
                f"  {summary.worker_id}: declared {summary.declared:.3f}, "
                f"posterior {summary.mean:.3f} "
                f"(lcb {summary.lcb:.3f}, {summary.observations:.1f} obs, "
                f"breaker {summary.breaker_state})"
            )
    incidents = getattr(result, "incidents", None)
    if incidents:
        by_kind: dict[str, int] = {}
        for event in incidents:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(by_kind.items())
        )
        print(f"incidents: {summary}")
    if getattr(result, "halted", False):
        print("session halted early (retries exhausted)")
    print(f"{'budget':>8}  {'accuracy':>8}  {'quality':>10}")
    step = max(1, len(result.history) // args.rows)
    records = result.history[::step]
    if records[-1] is not result.history[-1]:
        records.append(result.history[-1])
    for record in records:
        print(f"{record.budget_spent:8.0f}  {record.accuracy:8.4f}  "
              f"{record.quality:10.2f}")
    _finish_observability(args)
    return 0


def _resume_session(args: argparse.Namespace, dataset, faults, selector=None):
    """Restore a crashed ``session --journal`` run and drive it on."""
    from .simulation import ResilientCheckingSession
    from .simulation.session import campaign_answer_source

    answer_source = campaign_answer_source(
        dataset, SessionConfig(seed=args.seed, faults=faults)
    )
    session = ResilientCheckingSession.resume(args.resume, selector=selector)
    return session.run(answer_source)


def _attach_session(args: argparse.Namespace, dataset, faults):
    """Re-admit a detached service campaign and drive it to completion.

    Unlike ``--resume`` (which rebuilds the session in-process), the
    journal goes back through a one-shot :class:`CampaignService`
    attach: identity comes from the journal's ``tenant`` record, the
    pre-crash spending is committed to the fresh pool, and the rest of
    the campaign runs under service scheduling — the same path a
    long-lived deployment takes after a restart.
    """
    from .core.serialization import header_field, verify_journal
    from .service import CampaignService, CampaignSpec

    # Read only: the attach salvages the journal before it resumes, so
    # the identity and header come from the verified prefix.
    records = verify_journal(args.attach).records
    identities = [
        record for record in records if record.get("kind") == "tenant"
    ]
    if not identities:
        print(
            f"error: {args.attach} has no tenant record — it is not a "
            "service journal; use --resume instead",
            file=sys.stderr,
        )
        return None
    identity = identities[-1]
    budget_total = header_field(records[0], "budget_total")
    config = SessionConfig(
        theta=args.theta,
        k=header_field(records[0], "k", int),
        budget=budget_total,
        initializer=args.initializer,
        seed=args.seed,
        faults=faults,
        journal_path=args.attach,
    )
    spec = CampaignSpec(
        tenant=identity["tenant"],
        name=identity["name"],
        dataset=dataset,
        config=config,
        priority=int(identity.get("priority", 0)),
        weight=identity.get("weight"),
    )
    with CampaignService(budget_total) as service:
        handle = service.attach(spec)
        service.run_until_idle()
        print(
            f"attached {handle.campaign_id}: "
            f"{handle.rounds} rounds, spent {handle.spent:.0f} "
            f"({handle.status.value})"
        )
        return service.result(handle)


def _cmd_stream(args: argparse.Namespace) -> int:
    """Run (or resume) a streamed campaign over a dataset's event log."""
    from .stream import (
        StreamChaos,
        StreamingCampaign,
        StreamSpec,
        generate_event_stream,
        make_arrivals,
    )

    _start_observability(args)
    dataset = load_dataset(
        Path(args.data) / "answer.csv",
        Path(args.data) / "truth.csv",
        group_size=args.group_size,
    )
    def events_for(spec: StreamSpec):
        return generate_event_stream(
            dataset,
            theta=spec.theta,
            votes_per_fact=spec.votes_per_fact,
            arrivals=make_arrivals(spec.arrival, spec.rate),
            seed=spec.seed,
            churn_rate=spec.churn,
            window=spec.window,
        )

    if args.resume:
        from .core.serialization import verify_journal

        # Read only: the resume salvages the journal itself.
        records = verify_journal(args.resume).records
        config_record = next(
            (
                record
                for record in records
                if record.get("kind") == "stream"
            ),
            None,
        )
        if config_record is None:
            print(
                f"error: {args.resume} has no stream config record — "
                "not a streamed-campaign journal",
                file=sys.stderr,
            )
            return 2
        spec = StreamSpec.from_dict(config_record.get("config", {}))
        campaign = StreamingCampaign.resume(
            args.resume,
            events_for(spec),
            experts=dataset.split_crowd(spec.theta)[0],
        )
    else:
        chaos = (
            StreamChaos.parse(args.chaos, seed=args.seed)
            if args.chaos
            else StreamChaos.from_env()
        )
        spec = StreamSpec(
            arrival=args.arrival,
            rate=args.rate,
            theta=args.theta,
            votes_per_fact=args.votes_per_fact,
            group_size=args.stream_group_size,
            target_votes=args.target_votes,
            allowed_lateness=args.allowed_lateness,
            straggler_timeout=args.straggler_timeout,
            rounds_per_event=args.rounds_per_event,
            churn=args.churn,
            seed=args.seed,
            chaos=chaos,
            belief_epsilon=_belief_epsilon(args),
        )
        experts, _preliminary = dataset.split_crowd(spec.theta)
        if len(experts) == 0:
            print(
                f"error: no worker reaches theta={spec.theta}; cannot "
                "form the checking panel CE",
                file=sys.stderr,
            )
            return 2
        campaign = StreamingCampaign(
            events_for(spec),
            experts,
            args.budget,
            spec=spec,
            journal_path=args.journal,
            k=args.k,
        )
    stats = campaign.run()
    print(
        f"stream: {stats['admitted']} admitted of {stats['deliveries']} "
        f"deliveries ({stats['duplicates']} duplicates, "
        f"{stats['late_admitted']} late, {stats['late_dropped']} dropped)"
    )
    print(
        f"groups: {stats['groups_sealed']} sealed "
        f"({stats['forced_seals']} forced), {stats['out_of_band']} "
        f"out-of-band updates, churn {stats['joins']} joins / "
        f"{stats['leaves']} leaves"
    )
    result = campaign.result()
    if result is None:
        print("no group ever sealed; nothing was checked")
        _finish_observability(args)
        return 0
    final = result.history[-1]
    print(
        f"checking: {max(0, len(result.history) - 1)} rounds, "
        f"spent {final.budget_spent:.0f}, accuracy {final.accuracy:.4f}"
    )
    _finish_observability(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a fleet of campaigns through the multi-tenant service."""
    from .service import (
        CampaignService,
        CampaignSpec,
        ServiceError,
        ServicePolicy,
        TenantQuota,
    )

    _start_observability(args)
    dataset = load_dataset(
        Path(args.data) / "answer.csv",
        Path(args.data) / "truth.csv",
        group_size=args.group_size,
    )
    stream_spec = None
    if args.stream:
        from .stream import StreamChaos, StreamSpec

        stream_spec = StreamSpec(
            rate=args.stream_rate,
            theta=args.theta,
            chaos=(
                StreamChaos.parse(args.stream_chaos, seed=args.seed)
                if args.stream_chaos
                else StreamChaos.from_env()
            ),
            belief_epsilon=_belief_epsilon(args),
        )
    # Every spec is built (and so validated) before the service exists:
    # a bad --k, --theta or --budget is refused before any journal.
    specs = [
        CampaignSpec(
            tenant=f"tenant-{index % args.tenants}",
            name=f"campaign-{index}",
            dataset=dataset,
            config=SessionConfig(
                theta=args.theta,
                k=args.k,
                budget=args.budget,
                initializer=args.initializer,
                seed=args.seed + index,
                belief_epsilon=_belief_epsilon(args),
            ),
            stream=(
                None
                if stream_spec is None
                else dataclasses.replace(stream_spec, seed=args.seed + index)
            ),
        )
        for index in range(args.campaigns)
    ]
    budget_pool = (
        args.budget_pool
        if args.budget_pool is not None
        else args.budget * args.campaigns
    )
    policy = ServicePolicy(
        slots=args.slots,
        queue_limit=args.queue_limit,
        round_deadline=args.round_deadline,
        max_strikes=args.max_strikes,
    )
    default_quota = TenantQuota(
        max_active=args.quota_active, max_budget=args.quota_budget
    )
    with CampaignService(
        budget_pool,
        policy=policy,
        default_quota=default_quota,
        journal_root=args.journal_root,
    ) as service:
        for spec in specs:
            try:
                service.submit(spec)
            except ServiceError as error:
                hint = getattr(error, "retry_after_rounds", 0)
                suffix = f" (retry after ~{hint} rounds)" if hint else ""
                print(f"rejected {spec.campaign_id}: {error}{suffix}")
        if args.health_every:
            rounds = 0
            while service.step() is not None:
                rounds += 1
                if rounds % args.health_every == 0:
                    print(service.health_summary())
        else:
            rounds = service.run_until_idle()
        stats = service.stats()
        print(f"served {rounds} rounds, {stats['completed']} campaigns "
              f"completed")
        print(f"{'campaign':<28}  {'status':<12} {'rounds':>6} "
              f"{'spent':>8} {'strikes':>7}")
        for campaign_id, entry in stats["campaigns"].items():
            print(f"{campaign_id:<28}  {entry['status']:<12} "
                  f"{entry['rounds']:>6} {entry['spent']:>8.0f} "
                  f"{entry['strikes']:>7}")
        admission = stats["admission"]
        print("admission: " + ", ".join(
            f"{name}={count}" for name, count in admission.items()
        ))
        ledger = stats["ledger"]
        print(f"ledger: committed {ledger['committed']:.0f} of "
              f"{ledger['total']:.0f}, "
              f"{ledger['open_reservations']} reservations open")
        if args.stream:
            print(f"backpressure: stream backlog "
                  f"{stats['stream_backlog']}, effective queue limit "
                  f"{stats['effective_queue_limit']}")
    _finish_observability(args)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.reproduce import run_all

    run_all(
        scale_name=args.scale,
        out_dir=args.out,
        only=args.only,
        jobs=args.jobs,
    )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .storage.soak import DEFAULT_STORAGE_CHAOS, SoakError, run_soak

    chaos_spec = (
        args.storage_chaos
        if args.storage_chaos is not None
        else DEFAULT_STORAGE_CHAOS
    )
    try:
        result = run_soak(
            minutes=args.minutes,
            kill_every=args.kill_every,
            seed=args.seed,
            tenants=args.tenants,
            chaos_spec=chaos_spec,
            out_dir=args.out,
            min_kills=args.min_kills,
        )
    except SoakError as error:
        print(f"SOAK FAILED: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    mttr = result["mttr_s"]
    print(
        f"soak ok: {result['waves']} waves, {result['kills']} kills "
        f"survived ({result['recoveries_per_min']:.1f} recoveries/min, "
        f"mean MTTR {mttr['mean'] * 1000.0:.0f} ms), "
        f"{result['records_verified']} records verified, "
        f"{result['bytes_salvaged']} bytes salvaged — "
        "every wave byte-identical to its uninterrupted reference",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset to disk"
    )
    generate.add_argument("--out", default="data")
    generate.add_argument("--groups", type=int, default=200)
    generate.add_argument("--group-size", type=int, default=5)
    generate.add_argument("--answers", type=int, default=8)
    generate.add_argument("--preliminary-workers", type=int, default=40)
    generate.add_argument("--expert-workers", type=int, default=3)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    describe = commands.add_parser(
        "describe", help="print summary statistics of a dataset"
    )
    describe.add_argument("--data", default="data")
    describe.add_argument("--group-size", type=int, default=5)
    describe.add_argument("--theta", type=float, default=0.9)
    describe.set_defaults(handler=_cmd_describe)

    aggregate = commands.add_parser(
        "aggregate", help="run a truth-inference method on a dataset"
    )
    aggregate.add_argument("--data", default="data",
                           help="directory with answer.csv / truth.csv")
    aggregate.add_argument(
        "--method", default="EBCC",
        help=f"one of: {', '.join(available_aggregators())}",
    )
    aggregate.add_argument("--group-size", type=int, default=5)
    aggregate.set_defaults(handler=_cmd_aggregate)

    session = commands.add_parser(
        "session", help="run the full HC pipeline on a dataset"
    )
    session.add_argument("--data", default="data")
    session.add_argument("--theta", type=float, default=0.9)
    session.add_argument("--k", type=int, default=1)
    session.add_argument("--budget", type=float, default=1000)
    session.add_argument("--initializer", default="EBCC")
    session.add_argument("--seed", type=int, default=0)
    session.add_argument("--group-size", type=int, default=5)
    session.add_argument("--rows", type=int, default=12,
                         help="approximate number of trajectory rows")
    from .core.selection import SELECTOR_NAMES

    session.add_argument(
        "--selector", default="lazy", choices=SELECTOR_NAMES,
        help="checking-task selection engine (default: the CELF "
             "lazy greedy, which picks the same facts as 'greedy' "
             "with far fewer entropy evaluations)",
    )
    _add_belief_epsilon_argument(session)
    _add_observability_arguments(session)
    session.add_argument(
        "--selector-stats", action="store_true",
        help="print the selector's evaluation counters after the run",
    )
    session.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject crowd faults and run the fault-tolerant loop, "
             "e.g. 'no_show=0.1,timeout=0.2,spam=0.05'",
    )
    session.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a crash-safe JSONL journal (enables --resume)",
    )
    session.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a crashed run from its journal instead of "
             "starting fresh",
    )
    session.add_argument(
        "--attach", default=None, metavar="PATH",
        help="re-admit a detached campaign-service journal (written by "
             "'repro serve') and drive it to completion",
    )
    session.add_argument(
        "--trust", action="store_true",
        help="enable online trust supervision (accuracy posteriors, "
             "gold probes, per-worker circuit breakers)",
    )
    session.add_argument(
        "--probe-rate", type=float, default=0.2,
        help="per-round probability of injecting a gold probe "
             "(with --trust)",
    )
    session.add_argument(
        "--quarantine-lcb", type=float, default=0.6,
        help="posterior-LCB threshold below which a worker's breaker "
             "trips (with --trust)",
    )
    session.set_defaults(handler=_cmd_session)

    serve = commands.add_parser(
        "serve",
        help="host many campaigns on the multi-tenant campaign service",
    )
    serve.add_argument("--data", default="data")
    serve.add_argument("--group-size", type=int, default=5)
    serve.add_argument("--theta", type=float, default=0.9)
    serve.add_argument("--k", type=int, default=1)
    serve.add_argument("--initializer", default="EBCC")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--campaigns", type=int, default=4, metavar="N",
        help="number of campaigns to submit (seeds seed..seed+N-1)",
    )
    serve.add_argument(
        "--tenants", type=int, default=2, metavar="N",
        help="spread the campaigns round-robin over N tenants",
    )
    serve.add_argument(
        "--budget", type=float, default=200,
        help="checking budget of each campaign",
    )
    serve.add_argument(
        "--budget-pool", type=float, default=None,
        help="shared ledger total backing all deposits "
             "(default: budget * campaigns)",
    )
    serve.add_argument(
        "--slots", type=int, default=4,
        help="campaigns with a live runtime at once",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="bound on the pending admission queue",
    )
    serve.add_argument(
        "--round-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per campaign round before it costs a "
             "strike (default: unlimited)",
    )
    serve.add_argument(
        "--max-strikes", type=int, default=3,
        help="fault strikes before a campaign is quarantined",
    )
    serve.add_argument(
        "--quota-active", type=int, default=None, metavar="N",
        help="per-tenant cap on concurrently admitted campaigns",
    )
    serve.add_argument(
        "--quota-budget", type=float, default=None,
        help="per-tenant cap on summed admitted campaign budgets",
    )
    serve.add_argument(
        "--journal-root", default="service-journals",
        help="directory for campaign journals "
             "(journal_root/tenant/name.jsonl)",
    )
    serve.add_argument(
        "--stream", action="store_true",
        help="run each campaign as a streamed campaign (event-log "
             "delivery, incremental group formation, backpressure)",
    )
    serve.add_argument(
        "--stream-rate", type=float, default=50.0, metavar="EVENTS/S",
        help="arrival rate of each streamed campaign (with --stream)",
    )
    serve.add_argument(
        "--stream-chaos", default=None, metavar="SPEC",
        help="delivery degradation, e.g. 'reorder=0.2,stall=0.05' "
             "(with --stream; REPRO_STREAM_CHAOS is the env fallback)",
    )
    serve.add_argument(
        "--health-every", type=int, default=0, metavar="N",
        help="print a one-line service health summary (active/queued "
             "campaigns, shed count, p95 round latency) every N rounds",
    )
    _add_belief_epsilon_argument(serve)
    _add_observability_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    stream = commands.add_parser(
        "stream",
        help="run one streamed campaign over a dataset's event log",
    )
    stream.add_argument("--data", default="data")
    stream.add_argument("--group-size", type=int, default=5)
    stream.add_argument("--theta", type=float, default=0.9)
    stream.add_argument("--k", type=int, default=1)
    stream.add_argument("--budget", type=float, default=1000)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--arrival", default="poisson",
        choices=("poisson", "bursty", "stalled"),
        help="arrival-process shape of the event stream",
    )
    stream.add_argument(
        "--rate", type=float, default=50.0, metavar="EVENTS/S",
        help="target event arrival rate",
    )
    stream.add_argument(
        "--votes-per-fact", type=int, default=3,
        help="simulated preliminary votes per streamed fact",
    )
    stream.add_argument(
        "--stream-group-size", type=int, default=3, metavar="N",
        help="facts per incrementally sealed group",
    )
    stream.add_argument(
        "--target-votes", type=int, default=2,
        help="votes per fact before its group may seal normally",
    )
    stream.add_argument(
        "--allowed-lateness", type=float, default=2.0, metavar="SECONDS",
        help="watermark grace for out-of-order events",
    )
    stream.add_argument(
        "--straggler-timeout", type=float, default=20.0, metavar="SECONDS",
        help="event-time horizon forcing a partial group seal (and "
             "beyond which late events are dropped)",
    )
    stream.add_argument(
        "--rounds-per-event", type=int, default=1,
        help="checking rounds driven after each admitted event",
    )
    stream.add_argument(
        "--churn", type=float, default=0.0,
        help="per-slot probability of an expert leave/join event",
    )
    stream.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="delivery degradation, e.g. 'reorder=0.2,duplicate=0.1' "
             "(REPRO_STREAM_CHAOS is the env fallback)",
    )
    stream.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a crash-safe journal (required for --resume later)",
    )
    stream.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a killed streamed campaign from its journal "
             "(the stream config is read back from the journal)",
    )
    _add_belief_epsilon_argument(stream)
    _add_observability_arguments(stream)
    stream.set_defaults(handler=_cmd_stream)

    metrics = commands.add_parser(
        "metrics",
        help="pretty-print a --metrics-out snapshot (latency "
             "attribution and counters)",
    )
    metrics.add_argument(
        "snapshot", help="path to a JSON snapshot written by "
                         "--metrics-out",
    )
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="render the snapshot in Prometheus text exposition "
             "format instead",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the paper's figures and tables"
    )
    reproduce.add_argument("--scale", default="small",
                           choices=("paper", "small"))
    reproduce.add_argument("--out", default="results")
    reproduce.add_argument("--only", nargs="*", default=None)
    reproduce.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan independent experiments across N worker processes",
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    soak = commands.add_parser(
        "soak",
        help="long-haul crash/recovery soak: streamed multi-tenant "
             "campaigns under storage+delivery chaos, killed and "
             "recovered on a seeded schedule",
    )
    soak.add_argument("--minutes", type=float, default=2.0,
                      help="approximate wall-clock budget (default 2)")
    soak.add_argument(
        "--kill-every", type=float, default=1.0, metavar="SECONDS",
        help="seconds of campaign-process run time between SIGKILLs, "
             "each drawn from 0.1-1.1x this and carried across waves "
             "(default 1)",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--tenants", type=int, default=2,
                      help="streamed tenants per wave (default 2)")
    soak.add_argument(
        "--storage-chaos", default=None, metavar="SPEC",
        help="storage fault rates as 'action=rate,...' (actions: "
             "short_write, fsync_error, enospc, rename_error, bitflip; "
             "default: the built-in mixed profile)",
    )
    soak.add_argument(
        "--min-kills", type=int, default=5, metavar="N",
        help="keep running until at least N kill cycles were survived, "
             "time budget notwithstanding (default 5)",
    )
    soak.add_argument("--out", default="soak-artifacts",
                      help="artifact directory (default soak-artifacts)")
    soak.set_defaults(handler=_cmd_soak)

    return parser


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """``--metrics-out``/``--trace-out`` shared by session/serve/stream."""
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON metrics snapshot at exit (.prom extension "
             "switches to Prometheus text format); render it later "
             "with 'repro metrics PATH'",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append every span (select/collect/update/journal "
             "timings) as JSON lines to PATH",
    )


def _add_belief_epsilon_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--belief-epsilon", type=float, default=None, metavar="EPS",
        help="truncation budget of the sparse belief kernel, in [0, 1); "
             "0 keeps the exact dense kernel (default: the "
             "REPRO_BELIEF_EPSILON environment variable, else 0)",
    )


def _belief_epsilon(args: argparse.Namespace) -> float:
    """Resolve the flag; unset falls back to the environment default."""
    if args.belief_epsilon is None:
        from .core.kernel import default_belief_epsilon

        return default_belief_epsilon()
    value = float(args.belief_epsilon)
    if not 0.0 <= value < 1.0:
        raise SystemExit("error: --belief-epsilon must lie in [0, 1)")
    return value


def _positive_int(text: str) -> int:
    """The ``--jobs`` type: an integer of at least 1 (argparse names
    the flag in its error)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
