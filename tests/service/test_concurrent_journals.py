"""Concurrent journals: neighbors in one directory never interfere.

A multi-tenant service interleaves many campaigns whose journals live
side by side under ``journal_root``.  These tests pin the isolation
contract at the file level: tearing and repairing one campaign's
journal — the on-disk state a crash mid-append leaves behind — and
resuming it byte-identically never changes a single byte of the
journal next to it.
"""

import numpy as np
import pytest

from repro.core.serialization import (
    repair_journal,
    trim_journal_to_last_checkpoint,
)
from repro.service import CampaignService, CampaignSpec
from repro.simulation import ResilientCheckingSession, SimulatedExpertPanel

from .conftest import make_config, make_dataset


@pytest.fixture
def neighbors(tmp_path):
    """Two campaigns of one tenant, interleaved round-by-round by the
    service so their journal appends genuinely alternate in time.

    Returns the two journal paths, their uninterrupted reference
    bytes, and each campaign's (dataset, config) for rebuilding an
    answer source.
    """
    campaigns = {
        name: (make_dataset(seed=100 + index), make_config(seed=index))
        for index, name in enumerate(("alpha", "beta"))
    }
    with CampaignService(
        50.0, journal_root=tmp_path / "svc"
    ) as service:
        for name, (dataset, config) in campaigns.items():
            service.submit(
                CampaignSpec(
                    tenant="acme",
                    name=name,
                    dataset=dataset,
                    config=config,
                )
            )
        service.run_until_idle()
    paths = {
        name: tmp_path / "svc" / "acme" / f"{name}.jsonl"
        for name in campaigns
    }
    return {
        name: {
            "path": paths[name],
            "bytes": paths[name].read_bytes(),
            "dataset": campaigns[name][0],
            "config": campaigns[name][1],
        }
        for name in campaigns
    }


def tear(entry) -> None:
    """Rewrite the journal as an intact prefix plus half a torn line —
    what a SIGKILL during an append leaves on disk."""
    lines = entry["bytes"].splitlines(keepends=True)
    assert len(lines) > 5
    entry["path"].write_bytes(
        b"".join(lines[:5]) + lines[5][: len(lines[5]) // 2]
    )


def fresh_source(entry):
    return SimulatedExpertPanel(
        entry["dataset"].ground_truth,
        rng=np.random.default_rng(entry["config"].seed),
    )


class TestConcurrentJournals:
    def test_both_torn_neighbors_resume_byte_identically(self, neighbors):
        """Tear both journals, then resume them one at a time: each
        comes back byte-identical, and while one is being repaired and
        replayed the other's torn bytes do not move."""
        for entry in neighbors.values():
            tear(entry)
        torn = {
            name: entry["path"].read_bytes()
            for name, entry in neighbors.items()
        }
        resume_order = ["alpha", "beta"]
        for position, name in enumerate(resume_order):
            entry = neighbors[name]
            session = ResilientCheckingSession.resume(entry["path"])
            session.run(fresh_source(entry))
            assert entry["path"].read_bytes() == entry["bytes"], name
            untouched = resume_order[position + 1 :]
            for other in untouched:
                assert (
                    neighbors[other]["path"].read_bytes() == torn[other]
                ), f"resuming {name} disturbed {other}"

    def test_repair_and_trim_are_surgical(self, neighbors):
        """The repair primitives themselves only touch the file they
        are pointed at."""
        alpha, beta = neighbors["alpha"], neighbors["beta"]
        tear(alpha)
        repair_journal(alpha["path"])
        trim_journal_to_last_checkpoint(alpha["path"])
        # The repaired file is a clean prefix of its reference...
        repaired = alpha["path"].read_bytes()
        assert alpha["bytes"].startswith(repaired)
        assert repaired.endswith(b"\n")
        # ...and the neighbor kept every byte.
        assert beta["path"].read_bytes() == beta["bytes"]

    def test_torn_tail_resume_preserves_results(self, neighbors):
        """Bit-identity holds through the tear, not just byte-identity
        of the log: the resumed campaign's posterior equals a fresh
        solo replay of the reference journal's campaign."""
        entry = neighbors["beta"]
        tear(entry)
        session = ResilientCheckingSession.resume(entry["path"])
        result = session.run(fresh_source(entry))
        assert entry["path"].read_bytes() == entry["bytes"]
        assert result.history[-1].budget_spent == pytest.approx(
            entry["config"].budget
        )
