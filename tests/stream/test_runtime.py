"""StreamingCampaign event-loop behavior under degraded delivery."""

from __future__ import annotations

import pytest

from repro.stream import StreamChaos, StreamEvent, StreamingCampaign, StreamSpec

from .conftest import BUDGET, build_spec, events_for, experts_for


def _run_campaign(dataset, spec, **kwargs):
    campaign = StreamingCampaign(
        events_for(dataset, spec),
        experts_for(dataset, spec),
        BUDGET,
        spec=spec,
        **kwargs,
    )
    campaign.run()
    return campaign


NAN = float("nan")


@pytest.mark.parametrize(
    "field, value",
    [
        ("arrival", "bogus"),
        ("rate", NAN),
        ("rate", 0.0),
        ("rate", float("inf")),
        ("theta", 1.5),
        ("votes_per_fact", -1),
        ("group_size", 0),
        ("target_votes", -1),
        ("smoothing", 0.7),
        ("allowed_lateness", -1.0),
        ("allowed_lateness", NAN),
        ("straggler_timeout", NAN),
        ("rounds_per_event", 0),
        ("events_per_step", 0),
        ("churn", 2.0),
        ("window", 0),
        ("seed", -1),
        ("belief_epsilon", NAN),
    ],
)
def test_spec_refuses_bad_values_where_it_is_built(field, value):
    """A spec the runtime would refuse, or misuse, fails on
    construction, before a service admits its campaign."""
    with pytest.raises(ValueError, match=field.split("_")[0]):
        StreamSpec(**{field: value})


@pytest.mark.parametrize(
    "budget, k, field",
    [
        (NAN, 1, "budget"),
        (float("inf"), 1, "budget"),
        (float("-inf"), 1, "budget"),
        (-5.0, 1, "budget"),
        (BUDGET, 0, "k"),
        (BUDGET, 1.5, "k"),
        (BUDGET, True, "k"),
    ],
)
def test_bad_budget_or_k_is_refused_before_the_journal(
    dataset, tmp_path, budget, k, field
):
    """The header would record the value (a NaN as invalid JSON), and the
    session would refuse it only at the first seal."""
    spec = build_spec()
    path = tmp_path / "stream.jsonl"
    with pytest.raises(ValueError, match=f"^{field} must be"):
        StreamingCampaign(
            events_for(dataset, spec),
            experts_for(dataset, spec),
            budget,
            spec=spec,
            journal_path=path,
            k=k,
        )
    assert not path.exists()


def test_every_delivery_slot_is_accounted_for(dataset):
    campaign = _run_campaign(dataset, build_spec())
    stats = campaign.stats()
    # every consumed slot was admitted, deduplicated, or dropped late
    assert (
        stats["admitted"] + stats["duplicates"] + stats["late_dropped"]
        == stats["cursor"]
    )
    assert stats["cursor"] == stats["deliveries"]
    assert campaign.finished
    assert stats["backlog"] == 0
    assert stats["late_admitted"] <= stats["admitted"]


def test_duplicates_are_admitted_exactly_once(dataset):
    # chaos pinned explicitly: the env matrix may inject a plan with
    # no duplication, and this test is *about* the dedup path
    spec = build_spec(
        chaos=StreamChaos(reorder=0.15, duplicate=0.2, seed=3)
    )
    campaign = _run_campaign(dataset, spec)
    stats = campaign.stats()
    assert stats["duplicates"] > 0  # the fixture chaos duplicates events
    # dedup means admissions never exceed the generated log length
    assert stats["admitted"] <= len(events_for(dataset, spec))


def test_stalled_arrivals_force_straggler_seals(dataset):
    spec = build_spec(
        arrival="stalled",
        rate=100.0,
        allowed_lateness=0.5,
        straggler_timeout=1.0,
        target_votes=10**6,  # unreachable: only timeouts can seal
        chaos=None,
        churn=0.0,
    )
    campaign = _run_campaign(dataset, spec)
    stats = campaign.stats()
    assert stats["groups_sealed"] > 0
    assert stats["forced_seals"] == stats["groups_sealed"]
    assert campaign.finished


def test_far_late_events_are_dropped(dataset):
    spec = build_spec(
        allowed_lateness=1.0,
        straggler_timeout=2.0,
        chaos=None,
        churn=0.0,
    )
    events = [
        StreamEvent(
            seq=0,
            time=100.0,
            kind="new_fact",
            payload={
                "fact_id": 0,
                "instance_id": "i0",
                "label": "positive",
                "truth": True,
            },
        ),
        # 98.5 s behind the watermark — far past the straggler grace
        StreamEvent(
            seq=1,
            time=0.5,
            kind="prelim_label",
            payload={"fact_id": 0, "worker_id": "w0", "answer": True},
        ),
    ]
    campaign = StreamingCampaign(
        events, experts_for(dataset, spec), BUDGET, spec=spec
    )
    campaign.run()
    stats = campaign.stats()
    assert stats["late_dropped"] == 1
    assert stats["admitted"] == 1


def test_vote_after_seal_becomes_out_of_band_update(dataset):
    spec = build_spec(
        group_size=1,
        target_votes=1,
        chaos=None,
        churn=0.0,
        rounds_per_event=1,
    )
    payload = {
        "fact_id": 0,
        "instance_id": "i0",
        "label": "positive",
        "truth": True,
    }
    events = [
        StreamEvent(seq=0, time=0.1, kind="new_fact", payload=payload),
        StreamEvent(
            seq=1,
            time=0.2,
            kind="prelim_label",
            payload={"fact_id": 0, "worker_id": "w0", "answer": True},
        ),
        # arrives after fact 0's single-fact group sealed
        StreamEvent(
            seq=2,
            time=0.3,
            kind="prelim_label",
            payload={
                "fact_id": 0,
                "worker_id": "w1",
                "accuracy": 0.7,
                "answer": False,
            },
        ),
    ]
    campaign = StreamingCampaign(
        events, experts_for(dataset, spec), BUDGET, spec=spec
    )
    campaign.run()
    stats = campaign.stats()
    assert stats["groups_sealed"] >= 1
    assert stats["out_of_band"] == 1
    assert campaign.session is not None
    kinds = [event.kind for event in campaign.session.incidents]
    assert "late_admit" in kinds
    assert "group_sealed" in kinds


def test_churn_flows_through_the_trust_supervisor(dataset):
    spec = build_spec(churn=0.4, chaos=None)
    campaign = _run_campaign(dataset, spec)
    stats = campaign.stats()
    assert stats["joins"] + stats["leaves"] > 0
    assert campaign.session is not None
    kinds = {event.kind for event in campaign.session.incidents}
    # at least one membership change happened after the session formed
    assert kinds & {"worker_join", "worker_leave"}


def test_run_respects_max_events_and_resumes_consumption(dataset):
    spec = build_spec()
    events = events_for(dataset, spec)
    campaign = StreamingCampaign(
        events, experts_for(dataset, spec), BUDGET, spec=spec
    )
    campaign.run(max_events=5)
    assert campaign.cursor == 5
    assert not campaign.finished
    assert campaign.backlog > 0
    campaign.run()
    assert campaign.drained
    assert campaign.finished


def test_result_reports_the_checking_outcome(dataset):
    campaign = _run_campaign(dataset, build_spec())
    result = campaign.result()
    assert result is not None
    assert set(result.final_labels) <= {
        int(fact_id) for fact_id in dataset.fact_ids
    }
    assert len(result.final_labels) > 0
    assert 0.0 < campaign.spent_budget <= BUDGET
