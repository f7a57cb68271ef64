"""Checkpoint lines of a v9 journal are deltas that fold back exactly.

Each checkpoint line of a v9 journal carries only what changed since the
journal's previous checkpoint line
(:class:`~repro.core.serialization.CheckpointWriter`), and
:func:`~repro.core.serialization.fold_checkpoints` turns a journal's
checkpoint records back into the whole checkpoint:

* a hypothesis suite journals drawn campaigns over dense and sparse
  (``"epsilon"``) groups, trust supervision, stream extras, groups
  added mid-campaign, faulted rounds with retries and reassignment, and
  a kill-and-resume.  For every checkpoint line, the fold of the
  records up to it must equal the ``to_checkpoint()`` taken when the
  line was written, probability bytes included; the resumed journal
  must be the uninterrupted run's bytes;
* the writer holds exactly the current groups' states (references,
  not copies), grows with streamed groups, and a resume primes it so
  the next line is the uninterrupted run's.

Malformed v9 members are pinned as typed errors on every resume path in
``tests/storage/test_resume_journal.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BeliefState, Crowd, Fact, FactoredBelief, FactSet
from repro.core.kernel import sparse_from_marginals
from repro.core.serialization import (
    fold_checkpoints,
    read_journal,
    strip_frame,
)
from repro.core.trust import TrustPolicy, select_gold_probes
from repro.datasets import make_synthetic_dataset
from repro.simulation import (
    FaultModel,
    FaultyExpertPanel,
    ResilientCheckingSession,
    RetryPolicy,
    SimulatedExpertPanel,
)
from repro.stream import StreamingCampaign

from tests.stream.conftest import BUDGET, build_spec, events_for, experts_for

EXPERTS = Crowd.from_accuracies([0.8, 0.9], prefix="e")
RESERVE = Crowd.from_accuracies([0.85, 0.75], prefix="r")

fact_texts = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | fact_texts
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(fact_texts, children, max_size=3),
    max_leaves=8,
)


@st.composite
def campaigns(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    count = sum(sizes)
    return {
        "sizes": sizes,
        # the groups after the first ``initial`` join mid-campaign
        "initial": draw(st.integers(1, len(sizes))),
        "grow_at": draw(st.integers(0, 2)),
        "texts": draw(st.lists(fact_texts, min_size=count, max_size=count)),
        "marginals": draw(
            st.lists(
                st.floats(1e-6, 1 - 1e-6), min_size=count, max_size=count
            )
        ),
        "truth": draw(st.lists(st.booleans(), min_size=count, max_size=count)),
        "epsilon": draw(st.sampled_from([0.0, 0.05])),
        "trust": draw(st.booleans()),
        "extras": draw(st.none() | st.dictionaries(fact_texts, json_values)),
        "faults": draw(
            st.sampled_from([None, (0.3, 0.0), (0.2, 0.3), (0.0, 0.5)])
        ),
        "k": draw(st.integers(1, 2)),
        "kill": draw(st.none() | st.integers(1, 4)),
        "tear": draw(st.integers(0, 40)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _groups(spec) -> list[BeliefState]:
    groups, start = [], 0
    for size in spec["sizes"]:
        facts = FactSet(
            Fact(fact_id=i, instance_id=f"t{i}", text=spec["texts"][i])
            for i in range(start, start + size)
        )
        marginals = spec["marginals"][start : start + size]
        groups.append(
            sparse_from_marginals(facts, marginals, spec["epsilon"])
            if spec["epsilon"]
            else BeliefState.from_marginals(facts, marginals)
        )
        start += size
    return groups


def _source(spec, truth):
    panel = SimulatedExpertPanel(truth, rng=spec["seed"])
    if spec["faults"] is None:
        return panel
    no_show, timeout = spec["faults"]
    return FaultyExpertPanel(
        panel,
        FaultModel(no_show=no_show, timeout=timeout, seed=spec["seed"]),
    )


def _recording(by_line: dict[bytes, dict]):
    """A ``_write_checkpoint`` that maps each checkpoint line's bytes to
    the ``to_checkpoint()`` of the session it was written from."""
    write = ResilientCheckingSession._write_checkpoint

    def recording(session, answer_source) -> None:
        expected = json.loads(json.dumps(session._inner.to_checkpoint()))
        write(session, answer_source)
        by_line[session._journal_path.read_bytes().splitlines()[-1]] = expected

    return recording


def _run(spec, path: Path, kill: int | None) -> bytes:
    """Journal the drawn campaign, one ``run`` call at a time; with
    ``kill``, drop the last ``spec["tear"]`` bytes after ``kill`` calls
    and resume."""
    groups = _groups(spec)
    truth = dict(enumerate(spec["truth"]))
    initial = groups[: spec["initial"]]
    first_truth = {
        fact.fact_id: truth[fact.fact_id]
        for group in initial for fact in group.facts
    }
    extras = spec["extras"]
    provider = (lambda: extras) if extras is not None else None
    session = ResilientCheckingSession(
        FactoredBelief(initial), EXPERTS, 14.0, k=spec["k"],
        ground_truth=first_truth, journal_path=path, seed=spec["seed"],
        reserve_experts=RESERVE,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        checkpoint_extras=provider,
        trust_policy=(
            TrustPolicy(probe_rate=0.8, min_observations=3.0, seed=1)
            if spec["trust"] else None
        ),
        gold_facts=(
            select_gold_probes(first_truth, fraction=0.25, seed=1)
            if spec["trust"] else None
        ),
    )
    source = _source(spec, truth)
    rounds = 0
    while True:
        if rounds == kill:
            raw = path.read_bytes()
            path.write_bytes(raw[: max(len(raw) - spec["tear"], 0)])
            session = ResilientCheckingSession.resume(
                path, retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0)
            )
            session.set_checkpoint_extras(provider)
            source = _source(spec, truth)
            session.rewind_source(source)
            if session.pending_queries is not None:
                # the tear cut into the last round: replay regrows it
                session.run(source, max_rounds=1)
        if rounds >= spec["grow_at"] and len(session.belief) < len(groups):
            # (again after a tear that cut the growth's checkpoint)
            session.add_groups(
                groups[spec["initial"] :],
                {key: truth[key] for key in truth if key not in first_truth},
            )
            session.checkpoint(source)
        if session.is_finished:
            break
        session.run(source, max_rounds=1)
        rounds += 1
    return path.read_bytes()


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=campaigns())
def test_fold_of_every_line_is_the_checkpoint_it_was_written_from(spec):
    written: dict[bytes, dict] = {}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ResilientCheckingSession, "_write_checkpoint", _recording(written)
        )
        whole = _run(spec, Path(tmp) / "whole.jsonl", None)
        if spec["kill"] is not None:
            killed = _run(spec, Path(tmp) / "killed.jsonl", spec["kill"])
            assert killed == whole
        records = read_journal(Path(tmp) / "whole.jsonl")
    lines = whole.splitlines()
    checkpoints = [
        index for index, record in enumerate(records)
        if record["kind"] == "checkpoint"
    ]
    assert len(checkpoints) >= 2
    for index in checkpoints:
        assert fold_checkpoints(records[: index + 1]) == written[lines[index]]
    first = records[checkpoints[0]]["session"]
    assert sorted(first["belief"], key=int) == [
        str(group) for group in range(spec["initial"])
    ]
    assert all("fact_set" in entry for entry in first["belief"].values())


def _groups_belief() -> tuple[FactoredBelief, dict[int, bool]]:
    truth = {i: i % 3 == 0 for i in range(12)}
    groups = [
        BeliefState.from_marginals(
            FactSet.from_ids([2 * g, 2 * g + 1]), [0.6, 0.4]
        )
        for g in range(6)
    ]
    return FactoredBelief(groups), truth


def _assert_writer_is_current(session) -> None:
    written = session._checkpoints._states
    current = list(session.belief)
    assert len(written) == len(current)
    assert all(entry is state for entry, state in zip(written, current))


def test_writer_holds_exactly_the_current_groups(tmp_path):
    belief, truth = _groups_belief()
    session = ResilientCheckingSession(
        belief, Crowd.from_accuracies([0.8, 0.9, 0.85]), 36.0, k=2,
        ground_truth=truth, journal_path=tmp_path / "run.jsonl",
    )
    panel = SimulatedExpertPanel(truth, rng=3)
    _assert_writer_is_current(session)
    rounds = 0
    while not session.is_finished:
        before = list(session.belief)
        session.run(panel, max_rounds=1)
        _assert_writer_is_current(session)
        replaced = [
            old for old, new in zip(before, session.belief) if old is not new
        ]
        assert replaced or session.is_finished
        written = session._checkpoints._states
        assert not any(old is entry for old in replaced for entry in written)
        rounds += 1
    assert rounds > 3


def test_writer_grows_with_streamed_groups(tmp_path):
    dataset = make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )
    spec = build_spec()
    path = tmp_path / "stream.jsonl"
    campaign = StreamingCampaign(
        events_for(dataset, spec), experts_for(dataset, spec), BUDGET,
        spec=spec, journal_path=path,
    )
    sizes = set()
    while not campaign.finished:
        campaign.run(max_events=1)
        if campaign._session is not None:
            _assert_writer_is_current(campaign._session)
            sizes.add(len(campaign._session.belief))
    assert len(sizes) > 1, "groups joined the belief mid-campaign"
    # each new group was written once with its facts, under the next index
    added = [
        int(index)
        for record in read_journal(path)
        if record["kind"] == "checkpoint"
        for index, entry in record["session"]["belief"].items()
        if "fact_set" in entry
    ]
    assert added == list(range(max(sizes)))


def test_resumed_writer_is_primed_and_writes_the_same_bytes(tmp_path):
    belief, truth = _groups_belief()
    experts = Crowd.from_accuracies([0.8, 0.9, 0.85])

    def fresh(path):
        return ResilientCheckingSession(
            _groups_belief()[0], experts, 36.0, k=2,
            ground_truth=truth, journal_path=path,
        )

    fresh(tmp_path / "ref.jsonl").run(SimulatedExpertPanel(truth, rng=5))
    fresh(tmp_path / "kill.jsonl").run(
        SimulatedExpertPanel(truth, rng=5), max_rounds=2
    )
    resumed = ResilientCheckingSession.resume(tmp_path / "kill.jsonl")
    _assert_writer_is_current(resumed)
    writer = resumed._checkpoints
    assert writer._history == len(resumed.history)
    assert writer._truth == len(truth)
    resumed.run(SimulatedExpertPanel(truth, rng=5))
    _assert_writer_is_current(resumed)
    assert (tmp_path / "kill.jsonl").read_bytes() == (
        tmp_path / "ref.jsonl"
    ).read_bytes()


def test_unchanged_values_in_a_new_state_are_not_rewritten(tmp_path):
    """A line depends on the values checkpointed, not on state
    identity: a group replaced by an equal state is not written."""
    belief, truth = _groups_belief()
    path = tmp_path / "run.jsonl"
    session = ResilientCheckingSession(
        belief, Crowd.from_accuracies([0.8, 0.9]), 36.0, k=2,
        ground_truth=truth, journal_path=path,
    )
    state = session.belief[0]
    session.belief.replace_group(
        0, BeliefState.from_normalized(state.facts, state.probabilities)
    )
    session.checkpoint()
    last = [strip_frame(r) for r in read_journal(path)][-1]
    assert last["session"]["belief"] == {}
    assert last["session"]["history"] == []
    assert last["session"]["ground_truth"] == {}
