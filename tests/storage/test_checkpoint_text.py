"""Checkpoint lines built from cached per-group text.

A journaling :class:`~repro.simulation.ResilientCheckingSession` keeps
each belief group's JSON text (``BeliefTextCache``) and splices it into
the checkpoint line, so a round formats only the groups it changed.
Every journal byte must stay what encoding the plain
``to_checkpoint()`` dict writes:

* ``encode_record`` with any members given as ``EncodedJSON`` text
  equals ``json.dumps`` of the plain record;
* a hypothesis suite runs each drawn campaign twice — once through the
  cache, once with the session text replaced by the plain dict — over
  dense and sparse (``"epsilon"``) groups, trust supervision, stream
  extras, non-ASCII fact text, framed (v8) and unframed (v7) journals,
  and a kill-and-resume; the journals must be equal, and every line
  must be what re-encoding its parsed record writes;
* after every round the cache holds exactly one entry per group of the
  current belief, and none for groups the round replaced;
* a resumed session starts with an empty cache yet continues the
  uninterrupted run's bytes.  The runtime resume suites exercise the
  same path: ``tests/engine/test_resume.py::TestTornJournalResume::
  test_every_cut_point_resumes_byte_identically``,
  ``tests/service/test_service.py::TestDetachReattach::
  test_service_restart_reattach_is_byte_identical`` and
  ``tests/stream/test_resume.py::
  test_kill_at_every_event_boundary_resumes_byte_identical``.
"""

from __future__ import annotations

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BeliefState, Crowd, Fact, FactoredBelief, FactSet
from repro.core.kernel import sparse_from_marginals
from repro.core.serialization import (
    EncodedJSON,
    append_journal_record,
    encode_record,
    strip_frame,
)
from repro.core.trust import TrustPolicy, select_gold_probes
from repro.datasets import make_synthetic_dataset
from repro.simulation import ResilientCheckingSession, SimulatedExpertPanel
from repro.stream import StreamingCampaign

from ..stream.conftest import BUDGET, build_spec, events_for, experts_for

EXPERTS = Crowd.from_accuracies([0.8, 0.9], prefix="e")

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
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = sum(sizes)
    return {
        "sizes": sizes,
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
        "version": draw(st.sampled_from([7, 8])),
        "k": draw(st.integers(1, 2)),
        "cut": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _belief(spec) -> FactoredBelief:
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
    return FactoredBelief(groups)


def _run(spec, path: Path) -> bytes:
    """Journal the drawn campaign: header, a kill after ``cut`` rounds,
    then a resume that finishes it."""
    truth = dict(enumerate(spec["truth"]))
    extras = spec["extras"]
    provider = (lambda: extras) if extras is not None else None
    budget = 12.0
    append_journal_record(
        path,
        {"kind": "header", "version": spec["version"],
         "budget_total": budget, "k": spec["k"]},
    )
    session = ResilientCheckingSession(
        _belief(spec), EXPERTS, budget, k=spec["k"], ground_truth=truth,
        journal_path=path, journal_header=False, seed=spec["seed"],
        checkpoint_extras=provider,
        trust_policy=(
            TrustPolicy(probe_rate=0.8, min_observations=3.0, seed=1)
            if spec["trust"] else None
        ),
        gold_facts=(
            select_gold_probes(truth, fraction=0.25, seed=1)
            if spec["trust"] else None
        ),
    )
    session.checkpoint()
    session.run(
        SimulatedExpertPanel(truth, rng=spec["seed"]), max_rounds=spec["cut"]
    )
    resumed = ResilientCheckingSession.resume(path)
    resumed.set_checkpoint_extras(provider)
    resumed.run(SimulatedExpertPanel(truth, rng=spec["seed"]))
    return path.read_bytes()


def _plain_session_text(self):
    return self._inner.to_checkpoint()


def _reencoded(line: bytes) -> bytes:
    """What v8 framing writes for the record ``line`` parses to, framed
    the way the CRC was first defined: over a re-encoding of the record
    with ``"_seq"`` last, then ``"_crc"`` appended."""
    record = json.loads(line)
    if "_seq" not in record:
        return json.dumps(record, separators=(",", ":")).encode()
    body = dict(strip_frame(record), _seq=record["_seq"])
    payload = json.dumps(body, separators=(",", ":"))
    crc = zlib.crc32(payload.encode())
    return f'{payload[:-1]},"_crc":"{crc:08x}"}}'.encode()


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=campaigns())
def test_cached_checkpoint_lines_equal_plain_dict_lines(spec):
    with tempfile.TemporaryDirectory() as tmp:
        cached = _run(spec, Path(tmp) / "cached.jsonl")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ResilientCheckingSession, "_session_text", _plain_session_text
            )
            plain = _run(spec, Path(tmp) / "plain.jsonl")
    assert cached == plain
    lines = cached.splitlines()
    assert sum(b'"kind":"checkpoint"' in line for line in lines) >= 2
    assert all(line == _reencoded(line) for line in lines)
    assert (b'"_crc"' in lines[0]) == (spec["version"] == 8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    record=st.dictionaries(fact_texts, json_values, min_size=1),
    data=st.data(),
)
def test_spliced_members_encode_like_plain_values(record, data):
    spliced = data.draw(st.sets(st.sampled_from(sorted(record))))
    mixed = {
        key: (
            EncodedJSON(json.dumps(value, separators=(",", ":")))
            if key in spliced
            else value
        )
        for key, value in record.items()
    }
    assert encode_record(mixed) == json.dumps(record, separators=(",", ":"))


def _groups_belief() -> tuple[FactoredBelief, dict[int, bool]]:
    truth = {i: i % 3 == 0 for i in range(12)}
    groups = [
        BeliefState.from_marginals(
            FactSet.from_ids([2 * g, 2 * g + 1]), [0.6, 0.4]
        )
        for g in range(6)
    ]
    return FactoredBelief(groups), truth


def _assert_cache_is_current(session) -> None:
    cached = session._belief_text._states
    current = list(session.belief)
    assert len(cached) == len(current)
    assert all(entry is state for entry, state in zip(cached, current))


def test_cache_holds_exactly_the_current_groups(tmp_path):
    belief, truth = _groups_belief()
    session = ResilientCheckingSession(
        belief, Crowd.from_accuracies([0.8, 0.9, 0.85]), 36.0, k=2,
        ground_truth=truth, journal_path=tmp_path / "run.jsonl",
    )
    panel = SimulatedExpertPanel(truth, rng=3)
    _assert_cache_is_current(session)
    rounds = 0
    while not session.is_finished:
        before = list(session.belief)
        session.run(panel, max_rounds=1)
        _assert_cache_is_current(session)
        replaced = [
            old for old, new in zip(before, session.belief) if old is not new
        ]
        assert replaced or session.is_finished
        cached = session._belief_text._states
        assert not any(old is entry for old in replaced for entry in cached)
        rounds += 1
    assert rounds > 3


def test_cache_grows_with_streamed_groups(tmp_path):
    dataset = make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )
    spec = build_spec()
    campaign = StreamingCampaign(
        events_for(dataset, spec), experts_for(dataset, spec), BUDGET,
        spec=spec, journal_path=tmp_path / "stream.jsonl",
    )
    sizes = set()
    while not campaign.finished:
        campaign.run(max_events=1)
        if campaign._session is not None:
            _assert_cache_is_current(campaign._session)
            sizes.add(len(campaign._session.belief))
    assert len(sizes) > 1, "groups joined the belief mid-campaign"


def test_resumed_session_starts_empty_and_writes_the_same_bytes(tmp_path):
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
    assert resumed._belief_text._states == []
    resumed.run(SimulatedExpertPanel(truth, rng=5))
    _assert_cache_is_current(resumed)
    assert (tmp_path / "kill.jsonl").read_bytes() == (
        tmp_path / "ref.jsonl"
    ).read_bytes()
