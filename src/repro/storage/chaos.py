"""Seeded fault injection for the durable-storage layer.

:mod:`repro.simulation.faults` degrades the crowd and
:mod:`repro.stream.chaos` degrades event *delivery*.  This module goes
one layer further down and degrades the **disk**: a
:class:`StorageChaos` plan decides, per ``(path, write_index)``,
whether a journal append or checkpoint rewrite suffers a short write,
a failed fsync, ``ENOSPC``, a failed rename, or a silent interior
bit-flip.  The write paths in :mod:`repro.core.serialization` consult
the installed plan on every durable write, so chaos reaches *every*
journal in the process — session journals, tenant records, stream
checkpoints — without any call-site changes.

Draws are deterministic (``SeedSequence([seed, salt, crc32(path_key),
write_index])``), so a plan injects the same faults no matter how
tenants interleave, and an explicit ``schedule`` places single faults
surgically ("bit-flip the 7th write to ``acme/run.jsonl``").  The
``path_key`` is the last two path components, so plans survive tmpdir
relocation.

Like its siblings, the plan reads from the environment
(``REPRO_STORAGE_CHAOS`` / ``REPRO_STORAGE_CHAOS_SEED``) so a CI
matrix leg can run whole suites over a faulty disk; an explicit
:func:`install_storage_chaos` (including ``install_storage_chaos(None)``
to force-disable) always wins over the environment.
"""

from __future__ import annotations

import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..faultplan import FaultPlan

#: Injectable actions, in the order draws are checked.
STORAGE_CHAOS_ACTIONS = (
    "short_write",
    "fsync_error",
    "enospc",
    "rename_error",
    "bitflip",
)


def chaos_path_key(path: "str | Path") -> str:
    """The plan-facing name of a write target.

    The last two components (``tenant/name.jsonl``) identify a journal
    across test tmpdirs and soak work directories, so schedules and
    seeded draws stay stable when the tree moves.
    """
    parts = Path(path).parts
    return "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]


@dataclass(frozen=True)
class StorageChaos(FaultPlan):
    """Seeded configuration of durable-storage fault injection.

    Parameters
    ----------
    short_write, fsync_error, enospc, rename_error, bitflip:
        Per-write probabilities (mutually exclusive per draw, checked
        in that order) that the write lands only partially and errors,
        that the data lands but the fsync errors, that the write fails
        with ``ENOSPC``, that the atomic-replace rename errors, or that
        one bit of the payload is silently flipped on its way to disk.
        The first four raise ``OSError`` at the injection point — the
        write layer's retry/fail-stop machinery is what is under test.
        ``bitflip`` raises nothing: the corruption is only discoverable
        later, through the v8 CRC framing.
    seed:
        Seed of the per-``(path, write_index)`` draw streams.
    schedule:
        Explicit ``{(path_key, write_index): action}`` overrides;
        scheduled entries fire regardless of the rates.  ``path_key``
        is :func:`chaos_path_key` of the target.

    :meth:`parse` reads ``"short_write=0.05,fsync_error=0.02"``;
    :meth:`from_env` reads ``REPRO_STORAGE_CHAOS`` (+ seed).
    """

    ACTIONS = STORAGE_CHAOS_ACTIONS
    #: Separates storage draws from the transport (no salt) and
    #: delivery (0x5C40) streams.
    SALT = (0xD15C,)
    ENV = "REPRO_STORAGE_CHAOS"
    KIND = "storage chaos"
    SCHEDULE_KEY = (str, int)

    short_write: float = 0.0
    fsync_error: float = 0.0
    enospc: float = 0.0
    rename_error: float = 0.0
    bitflip: float = 0.0
    seed: int = 0
    schedule: Mapping[tuple[str, int], str] = field(default_factory=dict)

    def action_for(self, path_key: str, write_index: int) -> str | None:
        """The action to inject for one write, or ``None``.

        Deterministic: the draw comes from its own
        ``SeedSequence([seed, salt, crc32(path_key), write_index])``
        stream, so the same plan injects the same faults no matter how
        writes to different journals interleave.
        """
        scheduled = self.schedule.get((path_key, write_index))
        if scheduled is not None:
            return scheduled
        return self.pick(zlib.crc32(path_key.encode("utf-8")), write_index)

    def flip_bit(self, data: bytes, path_key: str, write_index: int) -> bytes:
        """``data`` with one deterministically-chosen bit flipped.

        The flipped position comes from the same seeded stream as the
        action draw (second value), restricted to the payload's
        interior so the line stays newline-terminated and the flip
        lands in the record body, not the trailing separator.
        """
        if len(data) < 2:
            return data
        draws = self.draw(
            zlib.crc32(path_key.encode("utf-8")), write_index, size=3
        )
        position = int(draws[1] * (len(data) - 1))
        bit = int(draws[2] * 8)
        corrupted = bytearray(data)
        corrupted[position] ^= 1 << bit
        return bytes(corrupted)


class StorageChaosState:
    """The installed plan plus its mutable per-path write counters.

    Write indices count every *attempt* (a retried append consumes a
    fresh index), so a transient fault does not re-fire forever, and
    they persist for the life of the installation — matching the
    transport layer's commands-survive-respawn semantics.
    """

    def __init__(self, plan: StorageChaos):
        self.plan = plan
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Injections actually performed, by action name.
        self.injected: dict[str, int] = {}

    def next_action(self, path: "str | Path") -> tuple[str | None, str, int]:
        """Draw the action for the next write to ``path``.

        Returns ``(action, path_key, write_index)``; the index is
        consumed whether or not an action fires, keeping the draw
        stream aligned with the write stream.
        """
        key = chaos_path_key(path)
        with self._lock:
            index = self._counters.get(key, 0)
            self._counters[key] = index + 1
        action = self.plan.action_for(key, index)
        if action is not None:
            with self._lock:
                self.injected[action] = self.injected.get(action, 0) + 1
        return action, key, index

    def stats(self) -> dict:
        with self._lock:
            return {
                "writes": sum(self._counters.values()),
                "paths": len(self._counters),
                "injected": dict(self.injected),
            }


#: Sentinel distinguishing "nothing installed" (fall back to the
#: environment) from an explicit ``install_storage_chaos(None)``.
_UNSET = object()

_INSTALLED: "StorageChaosState | None | object" = _UNSET
_ENV_CACHE: "tuple[tuple, StorageChaosState | None] | None" = None
_INSTALL_LOCK = threading.Lock()


def install_storage_chaos(
    plan: "StorageChaos | None",
) -> "StorageChaosState | None":
    """Install ``plan`` process-wide; ``None`` force-disables.

    Returns the live state (counter/stat access for tests and the soak
    harness), or ``None`` when the plan is ``None`` or has no enabled
    action.  An installed plan — including the explicit ``None`` —
    always overrides ``REPRO_STORAGE_CHAOS``.
    """
    global _INSTALLED
    state = (
        StorageChaosState(plan)
        if plan is not None and plan.enabled
        else None
    )
    with _INSTALL_LOCK:
        _INSTALLED = state
    return state


def uninstall_storage_chaos() -> None:
    """Remove any installed plan (the environment applies again)."""
    global _INSTALLED
    with _INSTALL_LOCK:
        _INSTALLED = _UNSET


def active_storage_chaos() -> "StorageChaosState | None":
    """The state the write paths must consult, or ``None``.

    Explicit installation wins; otherwise the environment plan is
    parsed once per distinct ``(spec, seed)`` value and its state —
    including write counters — is reused across calls.
    """
    global _ENV_CACHE
    installed = _INSTALLED
    if installed is not _UNSET:
        return installed  # type: ignore[return-value]
    spec = os.environ.get("REPRO_STORAGE_CHAOS")
    if not spec:
        return None
    key = (spec, os.environ.get("REPRO_STORAGE_CHAOS_SEED", "0"))
    cached = _ENV_CACHE
    if cached is not None and cached[0] == key:
        return cached[1]
    plan = StorageChaos.from_env()
    state = StorageChaosState(plan) if plan is not None else None
    _ENV_CACHE = (key, state)
    return state


@contextmanager
def storage_chaos(plan: "StorageChaos | None"):
    """Scoped installation: yields the state, restores the previous
    installation (or the environment fallback) on exit."""
    global _INSTALLED
    with _INSTALL_LOCK:
        previous = _INSTALLED
    state = install_storage_chaos(plan)
    try:
        yield state
    finally:
        with _INSTALL_LOCK:
            _INSTALLED = previous
