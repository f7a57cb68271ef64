"""Long-haul soak: kill the whole service, on purpose, on a schedule.

The rest of the robustness stack is verified piecewise — torn tails,
interior bit-flips, crowd faults, delivery degradation each have
their own suites.  The soak harness (``repro soak``) composes all of
it and adds the one fault no in-process test can stage honestly: the
**whole-process SIGKILL**, repeatedly, against a live multi-tenant
service writing through a deliberately faulty disk.

One soak run is a sequence of *waves*.  Each wave:

1. builds a deterministic multi-tenant workload — streamed campaigns
   under :class:`~repro.stream.chaos.StreamChaos` delivery degradation
   plus one batch campaign;
2. runs it once, uninterrupted and with storage chaos force-disabled,
   to produce the **reference** journal bytes;
3. runs the *same* workload in a forked child process with a seeded
   :class:`~repro.storage.chaos.StorageChaos` plan installed, and
   SIGKILLs the child on a seeded jittered schedule whose delays count
   the children's run time across cycles and waves (see
   :func:`_kill_delay`).  Every respawned
   child performs whole-service crash recovery
   (:meth:`~repro.service.service.CampaignService.recover`) before
   continuing;
4. after every kill, read-only-verifies each surviving journal: its
   longest verified prefix must be a byte prefix of the reference;
5. once the child reports completion, performs a final chaos-free
   convergence pass (recover + run to idle — this also heals any
   still-undetected trailing bit-flip) and asserts every journal is
   **byte-identical** to the reference, with the shared ledger passing
   :meth:`~repro.engine.ledger.BudgetLedger.audit` ``strict=True``.

Any violated invariant raises :class:`SoakError`.  The result dict
(``BENCH_soak.json`` material) carries kill/recovery counts, MTTR
statistics, records verified and bytes salvaged.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np

from ..core.serialization import atomic_write_json
from .chaos import StorageChaos, install_storage_chaos, storage_chaos
from .integrity import verify_journal

__all__ = ["SoakError", "run_soak", "DEFAULT_STORAGE_CHAOS"]

#: The default storage fault mix: every transient fault class plus
#: silent bit-flips.  ``enospc`` stays out of the default — it is
#: fail-stop by design, and the soak measures recovery, not refusal.
DEFAULT_STORAGE_CHAOS = (
    "short_write=0.02,fsync_error=0.02,rename_error=0.02,bitflip=0.02"
)

#: Hard ceiling on kill cycles within one wave, against a workload
#: that somehow cannot make progress between kills.
_MAX_CYCLES_PER_WAVE = 200

_POLL_S = 0.02


class SoakError(RuntimeError):
    """A soak invariant did not hold (divergence, drift, or a wave
    that could not be driven to completion)."""


def _wave_dataset(wave_seed: int, index: int):
    from ..datasets.synthetic import WorkerPoolSpec, make_synthetic_dataset

    return make_synthetic_dataset(
        num_groups=3,
        group_size=3,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=3),
        seed=wave_seed * 37 + index,
    )


def _wave_specs(wave_seed: int, tenants: int) -> list:
    """The wave's deterministic workload, regenerable anywhere.

    Built from plain ints only, so the forked child reconstructs the
    exact same specs from ``(wave_seed, tenants)`` without any pickling
    of datasets or factories.
    """
    from ..service.campaign import CampaignSpec
    from ..simulation.session import SessionConfig
    from ..stream.chaos import StreamChaos
    from ..stream.runtime import StreamSpec

    specs = []
    for index in range(tenants):
        specs.append(
            CampaignSpec(
                tenant=f"tenant{index}",
                name="stream",
                dataset=_wave_dataset(wave_seed, index),
                config=SessionConfig(
                    budget=24.0, k=1, seed=wave_seed + index
                ),
                stream=StreamSpec(
                    rate=50.0,
                    votes_per_fact=3,
                    group_size=3,
                    target_votes=2,
                    churn=0.1,
                    seed=wave_seed + index,
                    chaos=StreamChaos(
                        reorder=0.15,
                        duplicate=0.1,
                        stall=0.05,
                        seed=wave_seed + index,
                    ),
                ),
            )
        )
    specs.append(
        CampaignSpec(
            tenant="batch",
            name="grid",
            dataset=_wave_dataset(wave_seed, tenants),
            config=SessionConfig(budget=18.0, k=2, seed=wave_seed),
        )
    )
    return specs


def _budget_pool(specs) -> float:
    return sum(spec.config.budget for spec in specs) + 1.0


def _soak_child(
    data_root: Path,
    wave_seed: int,
    tenants: int,
    chaos_spec: str,
    chaos_seed: int,
    status_path: Path,
    done_path: Path,
) -> None:
    """One service lifetime: recover, report readiness, run to idle.

    Runs in a forked child.  Storage chaos applies to the campaign
    journals (the data plane); the harness's own ``status``/``done``
    control files are written with chaos force-disabled so a corrupted
    control file never masquerades as a corrupted journal.
    """
    from ..service.service import CampaignService

    plan = (
        StorageChaos.parse(chaos_spec, seed=chaos_seed)
        if chaos_spec
        else None
    )
    state = install_storage_chaos(plan)
    specs = _wave_specs(wave_seed, tenants)
    service = CampaignService(
        _budget_pool(specs), journal_root=data_root
    )
    recovery = service.recover(specs=specs, strict=True)
    for spec in specs:
        if spec.campaign_id not in service._records:
            service.submit(spec)
    with storage_chaos(None):
        atomic_write_json(
            {"ready_at": time.time(), "recovery": recovery.as_dict()},
            status_path,
        )
    service.run_until_idle(max_steps=100_000)
    statuses = {
        spec.campaign_id: service.handle(spec.campaign_id).status.value
        for spec in specs
    }
    ok = all(value == "completed" for value in statuses.values())
    service.ledger.audit(strict=True)
    with storage_chaos(None):
        atomic_write_json(
            {
                "ok": ok,
                "statuses": statuses,
                "chaos": state.stats() if state is not None else {},
            },
            done_path,
        )
    os._exit(0 if ok else 1)


def _read_control(path: Path) -> dict | None:
    """A control file's payload, or ``None`` if absent or torn (the
    child can be SIGKILLed mid-write; that is the point)."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _reference_run(specs, ref_root: Path) -> dict[str, bytes]:
    """The uninterrupted, chaos-free reference journals, by relpath."""
    from ..service.service import CampaignService

    with storage_chaos(None):
        with CampaignService(
            _budget_pool(specs), journal_root=ref_root
        ) as service:
            for spec in specs:
                service.submit(spec)
            service.run_until_idle(max_steps=100_000)
            for spec in specs:
                status = service.handle(spec.campaign_id).status.value
                if status != "completed":
                    raise SoakError(
                        f"reference run left {spec.campaign_id} "
                        f"{status}; the workload must complete solo"
                    )
            service.ledger.audit(strict=True)
    return {
        str(path.relative_to(ref_root)): path.read_bytes()
        for path in sorted(ref_root.rglob("*.jsonl"))
    }


def _verify_prefixes(
    data_root: Path, reference: dict[str, bytes], metrics: dict
) -> None:
    """Post-kill invariant: every journal's verified prefix is a byte
    prefix of the reference journal."""
    for path in sorted(data_root.rglob("*.jsonl")):
        relative = str(path.relative_to(data_root))
        expected = reference.get(relative)
        if expected is None:
            raise SoakError(f"unexpected journal {relative} appeared")
        report = verify_journal(path)
        prefix = path.read_bytes()[: report.prefix_bytes]
        if not expected.startswith(prefix):
            raise SoakError(
                f"journal {relative} diverged from the reference "
                f"within its verified prefix "
                f"({report.verified_records} records, "
                f"{report.prefix_bytes} bytes)"
            )
        metrics["records_verified"] += report.verified_records
        for entry in report.damage:
            metrics["damage"][entry.kind] = (
                metrics["damage"].get(entry.kind, 0) + 1
            )


def _converge(specs, data_root: Path, metrics: dict) -> None:
    """Final chaos-free pass: salvage residual damage (e.g. a trailing
    bit-flip no reader has hit yet), reattach, and run to completion."""
    from ..service.service import CampaignService

    with storage_chaos(None):
        service = CampaignService(
            _budget_pool(specs), journal_root=data_root
        )
        recovery = service.recover(specs=specs, strict=True)
        metrics["bytes_salvaged"] += recovery.salvaged_bytes
        for campaign in recovery.campaigns:
            for kind in campaign.damage:
                metrics["damage"][kind] = (
                    metrics["damage"].get(kind, 0) + 1
                )
            if campaign.outcome in ("failed", "orphaned"):
                raise SoakError(
                    f"convergence recovery left {campaign.campaign_id}"
                    f" {campaign.outcome}: {campaign.error}"
                )
        for spec in specs:
            if spec.campaign_id not in service._records:
                service.submit(spec)
        service.run_until_idle(max_steps=100_000)
        for spec in specs:
            status = service.handle(spec.campaign_id).status.value
            if status != "completed":
                raise SoakError(
                    f"{spec.campaign_id} is {status} after the "
                    "convergence pass"
                )
        service.ledger.audit(strict=True)
        service.close()


def _assert_byte_identity(
    data_root: Path, reference: dict[str, bytes], wave: int
) -> None:
    live = {
        str(path.relative_to(data_root)): path.read_bytes()
        for path in sorted(data_root.rglob("*.jsonl"))
    }
    if set(live) != set(reference):
        raise SoakError(
            f"wave {wave}: journal sets differ "
            f"(live={sorted(live)}, reference={sorted(reference)})"
        )
    for relative, expected in reference.items():
        if live[relative] != expected:
            raise SoakError(
                f"wave {wave}: journal {relative} is not "
                "byte-identical to the uninterrupted reference"
            )


def _kill_delay(kill_every: float, rng: np.random.Generator) -> float:
    """Seconds of child run time until the next SIGKILL.

    Jitter down to 0.1x so the schedule lands *inside* short waves too
    — a floor of half the period would let fast cycles finish before
    every kill and starve the crash coverage.  A delay is spent across
    cycles and waves (only a kill draws the next one), so a wave that
    finishes before it does not waste it: the time left runs on in the
    next child.
    """
    return kill_every * (0.1 + float(rng.random()))


def _run_wave(
    out_root: Path,
    wave: int,
    seed: int,
    tenants: int,
    chaos_spec: str,
    kill_every: float,
    kill_after: float,
    rng: np.random.Generator,
    metrics: dict,
) -> float:
    """Run one wave to byte-identity; returns the kill delay left
    over for the next wave."""
    wave_seed = seed * 1009 + wave
    wave_dir = out_root / f"wave{wave:03d}"
    ref_root = wave_dir / "reference"
    data_root = wave_dir / "live"
    data_root.mkdir(parents=True, exist_ok=True)
    specs = _wave_specs(wave_seed, tenants)
    reference = _reference_run(specs, ref_root)
    context = multiprocessing.get_context("fork")
    for cycle in range(1, _MAX_CYCLES_PER_WAVE + 1):
        status_path = wave_dir / "status.json"
        done_path = wave_dir / "done.json"
        for control in (status_path, done_path):
            if control.exists():
                control.unlink()
        spawn_at = time.time()
        child = context.Process(
            target=_soak_child,
            args=(
                data_root,
                wave_seed,
                tenants,
                chaos_spec,
                wave_seed + cycle,
                status_path,
                done_path,
            ),
        )
        child.start()
        killed = False
        while child.is_alive():
            if done_path.exists():
                break
            if time.time() - spawn_at >= kill_after:
                os.kill(child.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(_POLL_S)
        child.join()
        if killed:
            kill_after = _kill_delay(kill_every, rng)
        else:
            kill_after -= time.time() - spawn_at
        status = _read_control(status_path)
        if status is not None and cycle > 1:
            metrics["mttr_samples"].append(
                max(0.0, status["ready_at"] - spawn_at)
            )
        if status is not None:
            recovery = status.get("recovery", {})
            metrics["bytes_salvaged"] += recovery.get(
                "salvaged_bytes", 0
            )
        if killed:
            metrics["kills"] += 1
            metrics["recoveries"] += 1
            _verify_prefixes(data_root, reference, metrics)
            continue
        done = _read_control(done_path)
        if done is not None and done.get("ok"):
            for action, count in done.get("chaos", {}).get(
                "injected", {}
            ).items():
                metrics["injected"][action] = (
                    metrics["injected"].get(action, 0) + count
                )
            break
        # The child died on its own (fail-stop, quarantine, or a torn
        # control file): that is a crash cycle — recover and go on.
        metrics["failed_cycles"] += 1
        metrics["recoveries"] += 1
        _verify_prefixes(data_root, reference, metrics)
    else:
        raise SoakError(
            f"wave {wave} did not complete within "
            f"{_MAX_CYCLES_PER_WAVE} kill cycles"
        )
    _converge(specs, data_root, metrics)
    _verify_prefixes(data_root, reference, metrics)
    _assert_byte_identity(data_root, reference, wave)
    metrics["campaigns_completed"] += len(specs)
    metrics["waves"] += 1
    return kill_after


def run_soak(
    minutes: float = 2.0,
    kill_every: float = 1.0,
    *,
    seed: int = 0,
    tenants: int = 2,
    chaos_spec: str = DEFAULT_STORAGE_CHAOS,
    out_dir: "str | Path | None" = None,
    min_kills: int = 0,
) -> dict:
    """Run the soak for roughly ``minutes``; returns the metrics dict.

    Waves run back-to-back until the time budget is spent (a started
    wave always runs to completion and verification, so the run can
    overshoot by one wave).  With ``min_kills`` set, waves keep coming
    until at least that many SIGKILL cycles have been survived, time
    budget notwithstanding.
    """
    if minutes <= 0:
        raise ValueError("minutes must be positive")
    if kill_every <= 0:
        raise ValueError("kill_every must be positive")
    if tenants < 1:
        raise ValueError("tenants must be at least 1")
    if chaos_spec:  # validate before forking anything
        StorageChaos.parse(chaos_spec, seed=seed)
    out_root = Path(
        out_dir
        if out_dir is not None
        else Path.cwd() / "soak-artifacts"
    )
    out_root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), 0x50AC])
    )
    metrics = {
        "waves": 0,
        "kills": 0,
        "recoveries": 0,
        "failed_cycles": 0,
        "campaigns_completed": 0,
        "records_verified": 0,
        "bytes_salvaged": 0,
        "mttr_samples": [],
        "damage": {},
        "injected": {},
    }
    started = time.time()
    deadline = started + minutes * 60.0
    kill_after = _kill_delay(kill_every, rng)
    wave = 0
    while True:
        wave += 1
        kill_after = _run_wave(
            out_root,
            wave,
            seed,
            tenants,
            chaos_spec,
            kill_every,
            kill_after,
            rng,
            metrics,
        )
        if time.time() >= deadline and metrics["kills"] >= min_kills:
            break
    elapsed = time.time() - started
    samples = metrics.pop("mttr_samples")
    result = {
        "minutes_requested": minutes,
        "elapsed_s": elapsed,
        "kill_every_s": kill_every,
        "seed": seed,
        "tenants": tenants,
        "storage_chaos": chaos_spec,
        "byte_identical": True,  # every wave asserted it; else raised
        **metrics,
        "recoveries_per_min": (
            metrics["recoveries"] / (elapsed / 60.0) if elapsed else 0.0
        ),
        "mttr_s": {
            "samples": len(samples),
            "mean": float(np.mean(samples)) if samples else None,
            "max": float(np.max(samples)) if samples else None,
        },
    }
    atomic_write_json(result, out_root / "soak_result.json")
    return result
