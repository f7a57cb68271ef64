"""Journals written by the removed process-shard engine resume serially.

``fixtures/sharded/`` holds a campaign journaled by the process-shard
engine before its removal (commit a5cea4e): a campaign-service campaign
(tenant ``acme``, name ``sharded``) with ``jobs=2`` worker processes,
budget 40, ``k=2`` and a simulated panel seeded with 1, over the dataset
in ``data/`` (grouped in fours).  A scheduled kill of shard 1 cost a
worker death, a failover and a rebalance, so besides the header, tenant
record and checkpoints the journal holds an ``engine`` record and three
``shard_incident`` records, two of them carrying a failover
``partition``.  ``reference.jsonl`` is the uninterrupted run and
``cut.jsonl`` its first 17 lines, a kill mid-run.

The engine and incident records are read and ignored: every resume path
continues on the serial loop and appends exactly the reference's
remaining bytes.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_dataset
from repro.service import CampaignService, CampaignSpec
from repro.simulation import (
    ResilientCheckingSession,
    SessionConfig,
    SimulatedExpertPanel,
)

FIXTURE = Path(__file__).parent / "fixtures" / "sharded"
REFERENCE = (FIXTURE / "reference.jsonl").read_bytes()
SEED = 1
GROUP_SIZE = 4


@pytest.fixture
def journal(tmp_path) -> Path:
    path = tmp_path / "acme" / "sharded.jsonl"
    path.parent.mkdir()
    shutil.copyfile(FIXTURE / "cut.jsonl", path)
    return path


def _dataset():
    return load_dataset(
        FIXTURE / "data" / "answer.csv",
        FIXTURE / "data" / "truth.csv",
        group_size=GROUP_SIZE,
    )


def test_fixture_holds_engine_and_failover_records():
    cut = (FIXTURE / "cut.jsonl").read_bytes()
    assert REFERENCE.startswith(cut) and len(cut) < len(REFERENCE)
    records = [json.loads(line) for line in cut.splitlines()]
    kinds = [record["kind"] for record in records]
    assert kinds[:3] == ["header", "tenant", "engine"]
    assert records[2]["jobs"] == 2
    incidents = [r for r in records if r["kind"] == "shard_incident"]
    assert [r["incident"] for r in incidents] == [
        "death", "failover", "rebalance",
    ]
    assert all(r["partition"] for r in incidents[1:])
    assert kinds[-1] == "checkpoint"
    # Nothing the serial loop would not write follows the cut.
    rest = [json.loads(line) for line in REFERENCE[len(cut):].splitlines()]
    assert {record["kind"] for record in rest} == {"checkpoint"}


def test_serial_resume_appends_the_reference_bytes(journal):
    session = ResilientCheckingSession.resume(journal)
    session.run(
        SimulatedExpertPanel(
            _dataset().ground_truth, rng=np.random.default_rng(SEED)
        )
    )
    assert journal.read_bytes() == REFERENCE


def test_service_attach_appends_the_reference_bytes(journal):
    spec = CampaignSpec(
        tenant="acme",
        name="sharded",
        dataset=_dataset(),
        config=SessionConfig(budget=40.0, k=2, seed=SEED),
    )
    with CampaignService(40.0, journal_root=journal.parents[1]) as service:
        handle = service.attach(spec)
        service.run_until_idle()
        assert handle.status.value == "completed"
    assert journal.read_bytes() == REFERENCE


def test_cli_resume_appends_the_reference_bytes(journal, capsys):
    assert main([
        "session", "--resume", str(journal), "--data", str(FIXTURE / "data"),
        "--group-size", str(GROUP_SIZE), "--seed", str(SEED),
    ]) == 0
    assert "budget" in capsys.readouterr().out
    assert journal.read_bytes() == REFERENCE
