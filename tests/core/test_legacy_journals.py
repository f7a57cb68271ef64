"""Journals that predate v9 continue byte for byte.

A campaign in flight across the upgrade to v9 keeps its journal's
format: every checkpoint line appended to a journal whose header is v8
or older is the whole checkpoint as payload version 8, probabilities as
JSON floats, framed only if the header is v8.  The fixtures in
``fixtures/`` were written by the v8 writer from the specs in
``fixtures/legacy_specs.json`` (a v7 journal with dense groups, trust
supervision and stream extras; a v8 one with sparse groups), each
journal started on a header of the spec's version and driven by a
:class:`~repro.simulation.SimulatedExpertPanel` seeded with the spec's
seed.  Resumed from every cut, torn or not, the continued journal must
regrow each fixture's bytes exactly, and a session started on the
fixture's header must write them too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import BeliefState, Crowd, Fact, FactoredBelief, FactSet
from repro.core.kernel import sparse_from_marginals
from repro.core.serialization import append_journal_record
from repro.core.trust import TrustPolicy, select_gold_probes
from repro.simulation import ResilientCheckingSession, SimulatedExpertPanel

FIXTURES = Path(__file__).parent / "fixtures"
SPECS = json.loads((FIXTURES / "legacy_specs.json").read_text("utf-8"))
EXPERTS = Crowd.from_accuracies([0.8, 0.9], prefix="e")
BUDGET = 12.0


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


def _provider(spec):
    extras = spec["extras"]
    return (lambda: extras) if extras is not None else None


def _panel(spec) -> SimulatedExpertPanel:
    truth = dict(enumerate(spec["truth"]))
    return SimulatedExpertPanel(truth, rng=spec["seed"])


def _cuts(lines: list[bytes]):
    """Every prefix of ``lines`` holding a checkpoint, whole or with its
    last line torn in half."""
    first = next(
        index for index, line in enumerate(lines)
        if b'"kind":"checkpoint"' in line
    )
    for end in range(first + 1, len(lines) + 1):
        yield b"".join(lines[:end])
        if end > first + 1:
            yield b"".join(lines[: end - 1]) + lines[end - 1][
                : len(lines[end - 1]) // 2
            ]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_resume_from_every_cut_regrows_the_fixture(name, tmp_path):
    spec = SPECS[name]
    fixture = (FIXTURES / f"legacy_{name}.jsonl").read_bytes()
    header = b'{"kind":"header","version":%d,' % spec["version"]
    assert fixture.startswith(header)
    path = tmp_path / "journal.jsonl"
    cuts = 0
    for prefix in _cuts(fixture.splitlines(keepends=True)):
        path.write_bytes(prefix)
        resumed = ResilientCheckingSession.resume(path)
        resumed.set_checkpoint_extras(_provider(spec))
        resumed.run(_panel(spec))
        assert path.read_bytes() == fixture, f"cut at byte {len(prefix)}"
        cuts += 1
    assert cuts > 10


@pytest.mark.parametrize("name", sorted(SPECS))
def test_session_started_on_a_legacy_header_writes_the_fixture(
    name, tmp_path
):
    spec = SPECS[name]
    path = tmp_path / "journal.jsonl"
    truth = dict(enumerate(spec["truth"]))
    append_journal_record(
        path,
        {"kind": "header", "version": spec["version"],
         "budget_total": BUDGET, "k": spec["k"]},
    )
    session = ResilientCheckingSession(
        _belief(spec), EXPERTS, BUDGET, k=spec["k"], ground_truth=truth,
        journal_path=path, journal_header=False, seed=spec["seed"],
        checkpoint_extras=_provider(spec),
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
    session.run(_panel(spec))
    fixture = (FIXTURES / f"legacy_{name}.jsonl").read_bytes()
    assert path.read_bytes() == fixture
