"""A campaign service keeps its shard workers between campaigns.

Workers released by one campaign's clean close serve the next campaign
the service launches; the service reaps them when it closes, and they
exit on their own when the service process dies.  Reuse must not change
a byte: every hosted journal still equals its solo run's.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.core.serialization import read_journal
from repro.engine import run_parallel_hc_session
from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ServicePolicy,
)

from .conftest import make_config, make_dataset, signature, solo_signature

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def process_spec(name: str, seed: int) -> CampaignSpec:
    return CampaignSpec(
        tenant="acme",
        name=name,
        dataset=make_dataset(seed=60 + seed),
        config=make_config(seed=seed),
        jobs=2,
        inline=False,
    )


def exited(pid: int, timeout: float = 30.0) -> bool:
    """Wait until ``pid`` is gone or a zombie (dead, not yet reaped)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] in ("Z", "X"):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def test_back_to_back_campaigns_share_one_pair_of_workers(tmp_path):
    """Four ``jobs=2`` process campaigns, one after another: all run on
    the two workers the first one spawned, and every journal equals the
    campaign's solo journaled run."""
    before = children()
    specs = [process_spec(f"c{index}", index) for index in range(4)]
    with CampaignService(
        100.0, policy=ServicePolicy(slots=1), journal_root=tmp_path / "svc"
    ) as service:
        handles = [service.submit(spec) for spec in specs]
        workers: set[int] = set()
        while service.step() is not None:
            workers |= children() - before
        assert len(workers) == 2
        for handle in handles:
            assert handle.status is CampaignStatus.COMPLETED
            assert handle.strikes == 0
    assert children() == before  # close() reaped the idle workers
    for spec, handle in zip(specs, handles):
        solo = tmp_path / f"solo-{spec.name}.jsonl"
        run_parallel_hc_session(
            spec.dataset,
            dataclasses.replace(spec.config, journal_path=solo),
            jobs=2,
            inline=True,
        )
        hosted = [
            record
            for record in read_journal(handle.journal_path)
            if record["kind"] != "tenant"
        ]
        assert hosted == read_journal(solo), spec.name


def test_worker_killed_between_campaigns_costs_no_strike(tmp_path):
    before = children()
    first_spec, second_spec = process_spec("first", 0), process_spec("second", 1)
    with CampaignService(
        100.0, policy=ServicePolicy(slots=1), journal_root=tmp_path / "svc"
    ) as service:
        first = service.submit(first_spec)
        second = service.submit(second_spec)
        while first.status is not CampaignStatus.COMPLETED:
            service.step()
        parked = children() - before
        assert len(parked) == 2
        victim = min(parked)
        os.kill(victim, signal.SIGKILL)
        assert exited(victim)
        service.run_until_idle()
        assert second.status is CampaignStatus.COMPLETED
        assert second.strikes == 0
        assert second.error is None
        assert signature(service.result(second)) == solo_signature(
            second_spec.dataset, second_spec.config, tmp_path / "solo.jsonl"
        )
        assert victim not in children()
    assert children() == before


_CHILD_SCRIPT = textwrap.dedent(
    """
    import json, multiprocessing, os, signal, sys
    from repro.datasets.synthetic import WorkerPoolSpec, make_synthetic_dataset
    from repro.service import CampaignService, CampaignSpec
    from repro.simulation.session import SessionConfig

    dataset = make_synthetic_dataset(
        num_groups=4, group_size=4, answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2), seed=61,
    )
    service = CampaignService(100.0, journal_root=sys.argv[1])
    service.submit(CampaignSpec(
        tenant="acme", name="job", dataset=dataset,
        config=SessionConfig(budget=12.0, k=2, seed=1),
        jobs=2, inline=False,
    ))
    service.run_until_idle()
    pids = [child.pid for child in multiprocessing.active_children()]
    print(json.dumps(pids), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def test_idle_workers_exit_when_the_service_process_is_killed(tmp_path):
    """A SIGKILLed service cannot reap its idle workers; they see their
    pipe close and exit on their own."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path / "svc")],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    pids = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(pids) == 2  # both workers were parked, alive
    for pid in pids:
        assert exited(pid), f"idle worker {pid} outlived its service"
