"""JSON serialization of beliefs, crowds and run histories.

Real checking campaigns run for days (humans answer slowly), so the
belief state and budget accounting must survive process restarts.
Everything here round-trips through plain JSON-compatible dictionaries:

* belief states and factored beliefs (facts + probabilities);
* crowds (worker ids + accuracies);
* round records / run histories.

:class:`~repro.simulation.online.OnlineCheckingSession` builds its
checkpoint support on these primitives.
"""

from __future__ import annotations

import base64
import binascii
import errno
import json
import math
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..storage.chaos import active_storage_chaos
from .facts import Fact, FactSet
from .hc import RoundRecord, RunResult
from .incidents import FaultEvent
from .observations import BeliefState, FactoredBelief
from .workers import Crowd, Worker

#: Format tag written into every serialized payload.  Version 2 adds
#: fault events on round records and the append-only session journal;
#: version 3 adds the trust-supervision state (worker posteriors,
#: circuit breakers, pending gold probes) to session checkpoints;
#: version 4 adds the process-shard engine's ``{"kind": "engine"}``
#: journal record (shard layout + jobs) and durable (fsynced) journal
#: appends; version 5 adds ``{"kind": "shard_incident"}`` journal
#: records (shard supervision audit trail + failover layout) and the
#: supervision settings on the engine record — that engine is gone, and
#: resumes read past both records;
#: version 6 adds the campaign service's ``{"kind": "tenant"}`` journal
#: record (tenant id, campaign name, priority, scheduling weight) so a
#: detached campaign can be re-admitted under the same identity;
#: version 7 adds the streaming runtime's records: a ``{"kind":
#: "stream"}`` config record (arrival/chaos/watermark settings), the
#: bootstrap-phase ``{"kind": "stream_checkpoint"}`` records written
#: before the first checking session exists, and a ``"stream"`` field on
#: session checkpoints carrying the event-log offset, watermark,
#: dedup state and incremental-initialization state so a streamed
#: campaign killed at any event boundary resumes exactly-once;
#: version 8 adds per-record integrity framing to the journal: every
#: line carries a monotonic ``"_seq"`` sequence number and a
#: ``"_crc"`` CRC32 of the rest of the line, so interior bit-flips,
#: dropped lines and duplicated lines are *detectable* (see
#: :mod:`repro.storage.integrity`), not just torn tails.  v8 journals
#: stay line-oriented JSONL — ``kind``-dispatching tooling reads them
#: unchanged — and journals whose header predates v8 keep appending
#: unframed lines so legacy byte-identity is preserved;
#: version 9 writes probabilities as base64 of their little-endian
#: float64 bytes, and makes each checkpoint line of a v9 journal a
#: delta against the journal's previous checkpoint line (the groups
#: whose probabilities changed, the round records and ground-truth
#: entries added; see :class:`CheckpointWriter`), which
#: :func:`fold_checkpoints` folds back into the whole checkpoint.
#: Journals whose header predates v9 keep receiving whole version-8
#: checkpoint lines.
#: Older payloads are still read transparently.
FORMAT_VERSION = 9

#: The payload version of the checkpoint lines appended to a journal
#: whose header predates v9: whole lines, probabilities as JSON floats.
_WHOLE_LINE_VERSION = 8

#: Versions this build can read.
SUPPORTED_VERSIONS = frozenset(range(1, FORMAT_VERSION + 1))


class SerializationError(ValueError):
    """Raised on malformed or version-incompatible payloads."""


class StorageFailure(RuntimeError):
    """A durable write could not be completed (fail-stop).

    Raised by :func:`append_journal_record` / :func:`atomic_write_json`
    after bounded retries on transient ``OSError`` faults, or
    immediately on non-transient ones (``ENOSPC``, permission errors).
    The write path never leaves a silent partial state behind: a torn
    append is rolled back to the pre-append size before this raises,
    and if even the rollback fails a ``<journal>.failstop.json`` marker
    is dropped next to the file so recovery tooling knows the tail is
    suspect.
    """

    def __init__(self, message: str, *, path: "Path | None" = None,
                 attempts: int = 0):
        super().__init__(message)
        self.path = path
        self.attempts = attempts


def _require(payload: dict, key: str) -> Any:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise SerializationError(f"missing field {key!r}") from None


def _is_int(value: Any) -> bool:
    """Whether ``value`` is a JSON integer.  ``bool`` subclasses
    ``int``, but ``true`` is neither a version nor a sequence number."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_version(payload: dict) -> int:
    """Validate a payload's ``version`` tag (missing == version 1).

    Returns the version; raises :class:`SerializationError` for
    payloads written by a newer (or unknown) format, and for versions
    that are not integers.
    """
    version = payload.get("version", 1) if isinstance(payload, dict) else 1
    if not _is_int(version) or version not in SUPPORTED_VERSIONS:
        raise SerializationError(
            f"unsupported payload version {version!r} "
            f"(this build reads {sorted(SUPPORTED_VERSIONS)})"
        )
    return version


# ----------------------------------------------------------------------
# facts
# ----------------------------------------------------------------------


def fact_set_to_dict(facts: FactSet) -> dict:
    return {
        "facts": [
            {
                "fact_id": fact.fact_id,
                "instance_id": fact.instance_id,
                "label": fact.label,
                "text": fact.text,
            }
            for fact in facts
        ]
    }


def fact_set_from_dict(payload: dict) -> FactSet:
    entries = _require(payload, "facts")
    return FactSet(
        Fact(
            fact_id=int(_require(entry, "fact_id")),
            instance_id=entry.get("instance_id", ""),
            label=entry.get("label", "positive"),
            text=entry.get("text", ""),
        )
        for entry in entries
    )


# ----------------------------------------------------------------------
# beliefs
# ----------------------------------------------------------------------


def _weights_to_dict(belief: BeliefState, version: int) -> dict:
    """A state's ``"probabilities"`` (and sparse ``"epsilon"``) members.

    Dense probabilities are the canonical stored form for both kernels:
    from v9 the base64 (standard alphabet, padded) of their
    little-endian float64 bytes, before it a JSON float list (``tolist``
    round-trips float64 exactly too).  Sparse states add their
    truncation budget so resume rebuilds the same kernel; the key is
    emitted only for sparse states, keeping epsilon=0 bytes identical
    to the pre-kernel format.
    """
    from .kernel import SparseBeliefState

    probabilities = belief.probabilities
    payload: dict = {
        "probabilities": (
            base64.b64encode(
                probabilities.astype("<f8", copy=False).tobytes()
            ).decode("ascii")
            if version >= 9
            else probabilities.tolist()
        )
    }
    if isinstance(belief, SparseBeliefState):
        payload["epsilon"] = belief.epsilon
    return payload


def belief_state_to_dict(
    belief: BeliefState, version: int = FORMAT_VERSION
) -> dict:
    """``belief`` as payload ``version`` writes it (see
    :func:`_weights_to_dict`)."""
    return {
        "version": version,
        "fact_set": fact_set_to_dict(belief.facts),
        **_weights_to_dict(belief, version),
    }


def _probabilities_from(value: Any, facts: FactSet) -> np.ndarray:
    """Stored probabilities: v9 base64 float64, or a v1–v8 list."""
    if not isinstance(value, str):
        return np.asarray(value, dtype=np.float64)
    try:
        raw = base64.b64decode(value, validate=True)
    except (binascii.Error, ValueError) as error:
        raise SerializationError(
            f"malformed field 'probabilities': {error}"
        ) from None
    if len(raw) != 8 << len(facts):
        raise SerializationError(
            f"malformed field 'probabilities': {len(raw)} bytes for "
            f"{len(facts)} facts, expected {8 << len(facts)}"
        )
    return np.frombuffer(raw, dtype="<f8")


def belief_state_from_dict(payload: dict) -> BeliefState:
    check_version(payload)
    facts = fact_set_from_dict(_require(payload, "fact_set"))
    probabilities = _probabilities_from(
        _require(payload, "probabilities"), facts
    )
    epsilon = payload.get("epsilon")
    if epsilon is not None:
        from .kernel import SparseBeliefState

        # The stored dense array is already truncated and renormalized;
        # reconstruct the support from its positive entries verbatim
        # (no re-truncation pass) so resume is bitwise faithful.
        support = np.flatnonzero(probabilities > 0.0).astype(np.int64)
        return SparseBeliefState.from_support(
            facts, support, probabilities[support], float(epsilon)
        )
    # Trust the stored normalization: re-dividing by a sum of 1 +/- ulp
    # would perturb the restored belief and break bitwise-identical
    # resume.
    return BeliefState.from_normalized(facts, probabilities)


def factored_belief_to_dict(
    belief: FactoredBelief, version: int = FORMAT_VERSION
) -> dict:
    return {
        "version": version,
        "groups": [belief_state_to_dict(group, version) for group in belief],
    }


def factored_belief_from_dict(payload: dict) -> FactoredBelief:
    check_version(payload)
    groups = _require(payload, "groups")
    if not isinstance(groups, list) or not groups:
        raise SerializationError("groups must be a non-empty list")
    return FactoredBelief(
        belief_state_from_dict(group) for group in groups
    )


#: Errnos worth retrying a durable write over; anything else (ENOSPC,
#: EROFS, EACCES, ...) fails the write immediately — retrying cannot
#: help, and pretending it succeeded would be a silent partial state.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.EIO, errno.EBUSY, errno.ETIMEDOUT}
)

#: Bounded retry envelope for one durable write.
_WRITE_ATTEMPTS = 5
_RETRY_BACKOFF = 0.001  # seconds; doubles per attempt


def _retry_delay(attempt: int) -> None:
    time.sleep(_RETRY_BACKOFF * (2**attempt))


def _write_failstop_marker(path: Path, reason: str) -> None:
    """Best-effort ``<path>.failstop.json`` sidecar for an append whose
    rollback failed — the journal tail can no longer be trusted, and
    the marker is how recovery tooling learns that without relying on
    the (possibly also failing) journal itself."""
    marker = path.with_name(path.name + ".failstop.json")
    try:
        marker.write_text(
            json.dumps(
                {"kind": "failstop", "path": str(path), "reason": reason}
            )
        )
    except OSError:
        pass  # the disk is gone; the raised StorageFailure must do


def atomic_write_json(payload: dict, path: str | Path) -> Path:
    """Durably write ``payload`` as JSON via write-to-temp + rename.

    The bytes are written to a temporary file in the destination
    directory, fsynced, and moved into place with :func:`os.replace`
    (atomic on POSIX), then the directory entry is fsynced too.  A crash
    at any point leaves either the old file or the new file — never a
    torn snapshot.

    Transient storage faults (including injected ones — see
    :mod:`repro.storage.chaos`) retry the whole temp + rename cycle up
    to ``_WRITE_ATTEMPTS`` times with exponential backoff; a
    non-transient fault or exhausted retries raise
    :class:`StorageFailure`, with the previous file intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chaos = active_storage_chaos()
    last_error: OSError | None = None
    for attempt in range(_WRITE_ATTEMPTS):
        action = key = None
        index = 0
        if chaos is not None:
            action, key, index = chaos.next_action(path)
        try:
            _atomic_write_once(payload, path, chaos, action, key, index)
        except OSError as error:
            last_error = error
            if error.errno not in _TRANSIENT_ERRNOS:
                raise StorageFailure(
                    f"checkpoint write to {path} failed with a "
                    f"non-transient fault: {error}",
                    path=path,
                    attempts=attempt + 1,
                ) from error
            if attempt + 1 < _WRITE_ATTEMPTS:
                _retry_delay(attempt)
            continue
        _fsync_directory(path.parent)
        return path
    raise StorageFailure(
        f"checkpoint write to {path} still failing after "
        f"{_WRITE_ATTEMPTS} attempts: {last_error}",
        path=path,
        attempts=_WRITE_ATTEMPTS,
    ) from last_error


def _atomic_write_once(
    payload: dict, path: Path, chaos, action, key, index
) -> None:
    data = json.dumps(payload).encode("utf-8")
    if action == "enospc":
        raise OSError(errno.ENOSPC, "injected ENOSPC (storage chaos)")
    if action == "bitflip":
        data = chaos.plan.flip_bit(data, key, index)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if action == "short_write":
                handle.write(data[: max(1, len(data) // 2)])
                handle.flush()
                raise OSError(
                    errno.EIO, "injected short write (storage chaos)"
                )
            handle.write(data)
            handle.flush()
            if action == "fsync_error":
                raise OSError(
                    errno.EIO, "injected fsync failure (storage chaos)"
                )
            os.fsync(handle.fileno())
        if action == "rename_error":
            raise OSError(
                errno.EIO, "injected rename failure (storage chaos)"
            )
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def save_belief(belief: FactoredBelief, path: str | Path) -> Path:
    """Atomically write a factored belief as JSON; returns the path."""
    return atomic_write_json(factored_belief_to_dict(belief), path)


def load_belief(path: str | Path) -> FactoredBelief:
    """Read a factored belief written by :func:`save_belief`."""
    with Path(path).open() as handle:
        return factored_belief_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# crowds
# ----------------------------------------------------------------------


def crowd_to_dict(crowd: Crowd, version: int = FORMAT_VERSION) -> dict:
    return {
        "version": version,
        "workers": [
            {"worker_id": worker.worker_id, "accuracy": worker.accuracy}
            for worker in crowd
        ],
    }


def crowd_from_dict(payload: dict) -> Crowd:
    check_version(payload)
    workers = _require(payload, "workers")
    return Crowd(
        Worker(
            worker_id=_require(entry, "worker_id"),
            accuracy=float(_require(entry, "accuracy")),
        )
        for entry in workers
    )


# ----------------------------------------------------------------------
# incidents
# ----------------------------------------------------------------------


def fault_event_to_dict(event: FaultEvent) -> dict:
    return {
        "kind": event.kind,
        "round_index": event.round_index,
        "attempt": event.attempt,
        "worker_id": event.worker_id,
        "fact_ids": list(event.fact_ids),
        "detail": event.detail,
    }


def fault_event_from_dict(payload: dict) -> FaultEvent:
    try:
        return FaultEvent(
            kind=str(_require(payload, "kind")),
            round_index=int(payload.get("round_index", -1)),
            attempt=int(payload.get("attempt", 0)),
            worker_id=payload.get("worker_id"),
            fact_ids=tuple(payload.get("fact_ids", ())),
            detail=str(payload.get("detail", "")),
        )
    except (TypeError, ValueError) as error:
        if isinstance(error, SerializationError):
            raise
        raise SerializationError(f"malformed fault event: {error}") from error


# ----------------------------------------------------------------------
# run histories
# ----------------------------------------------------------------------


def round_record_to_dict(record: RoundRecord) -> dict:
    payload = {
        "round_index": record.round_index,
        "query_fact_ids": list(record.query_fact_ids),
        "cost": record.cost,
        "budget_spent": record.budget_spent,
        "quality": record.quality,
        "accuracy": record.accuracy,
    }
    if record.fault_events:
        payload["fault_events"] = [
            fault_event_to_dict(event) for event in record.fault_events
        ]
    return payload


def round_record_from_dict(payload: dict) -> RoundRecord:
    return RoundRecord(
        round_index=int(_require(payload, "round_index")),
        query_fact_ids=tuple(_require(payload, "query_fact_ids")),
        cost=float(_require(payload, "cost")),
        budget_spent=float(_require(payload, "budget_spent")),
        quality=float(_require(payload, "quality")),
        accuracy=payload.get("accuracy"),
        fault_events=tuple(
            fault_event_from_dict(event)
            for event in payload.get("fault_events", ())
        ),
    )


def run_result_to_dict(result: RunResult) -> dict:
    return {
        "version": FORMAT_VERSION,
        "belief": factored_belief_to_dict(result.belief),
        "history": [
            round_record_to_dict(record) for record in result.history
        ],
    }


def run_result_from_dict(payload: dict) -> RunResult:
    check_version(payload)
    belief = factored_belief_from_dict(_require(payload, "belief"))
    history = [
        round_record_from_dict(record)
        for record in _require(payload, "history")
    ]
    return RunResult(belief=belief, history=history)


def save_run_result(result: RunResult, path: str | Path) -> Path:
    return atomic_write_json(run_result_to_dict(result), path)


def load_run_result(path: str | Path) -> RunResult:
    with Path(path).open() as handle:
        return run_result_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# session checkpoints
# ----------------------------------------------------------------------


def checkpoint_to_dict(state: dict, version: int = FORMAT_VERSION) -> dict:
    """A session's durable state as payload ``version`` writes it whole.

    ``state`` is
    :meth:`~repro.simulation.online.OnlineCheckingSession.checkpoint_state`:
    the checkpoint's members in order, with the belief, the ground-truth
    mapping and the history's round records still objects.  This is
    what ``to_checkpoint()`` returns, and what a journal whose header
    predates v9 receives as each checkpoint line's ``"session"``.
    """
    truth = state["ground_truth"]
    return {
        "version": version,
        **state,
        "belief": factored_belief_to_dict(state["belief"], version),
        "ground_truth": (
            {str(key): value for key, value in truth.items()}
            if truth is not None
            else None
        ),
        "history": [
            round_record_to_dict(record) for record in state["history"]
        ],
    }


def payload_version(header_version: int) -> int:
    """The payload version of what is appended to a journal whose header
    is ``header_version``: the current one, or the whole-line version 8
    on a journal that predates v9, so it continues as it was written."""
    return (
        FORMAT_VERSION
        if header_version >= FORMAT_VERSION
        else _WHOLE_LINE_VERSION
    )


def _same_weights(state: BeliefState, written: BeliefState) -> bool:
    """Whether ``state`` encodes as ``written`` did: the same float64
    bits (an exact test, unlike ``==`` on ``-0.0`` and ``0.0``) and the
    same sparse ``epsilon``."""
    if getattr(state, "epsilon", None) != getattr(written, "epsilon", None):
        return False
    return np.array_equal(
        state.probabilities.view(np.int64),
        written.probabilities.view(np.int64),
    )


class CheckpointWriter:
    """The ``"session"`` member of one journal's checkpoint lines.

    Each checkpoint line of a v9 journal is a delta against the
    journal's previous checkpoint line:

    * ``belief`` maps group indices to the groups whose probabilities
      (or sparse ``epsilon``) differ from what the journal last wrote
      for that index, as base64 float64.  A group new since the
      previous line (every group, on the first line) carries its fact
      set; a changed one does not, since a group's facts never change;
    * ``history`` holds only the round records, and ``ground_truth``
      only the entries, added since the previous line;
    * every other member is written whole.

    So a line costs O(groups changed), and a line depends only on the
    values checkpointed: a state's identity is only the shortcut for
    "unchanged", and fresh and resumed runs of one campaign write the
    same bytes.  :func:`fold_checkpoints` inverts it.  A
    journal whose header predates v9 receives :func:`checkpoint_to_dict`
    whole instead, as payload version 8, as it always did.

    The writer keeps references to the states it last wrote (states
    are immutable), never copies of them.
    """

    def __init__(self, header_version: int = FORMAT_VERSION) -> None:
        #: The payload version of the lines (see :func:`payload_version`).
        self.version = payload_version(header_version)
        self._states: list[BeliefState] = []
        self._history = 0
        self._truth = 0

    def session(self, state: dict) -> dict:
        """The next line's ``"session"`` member for the session state
        ``state`` (see :func:`checkpoint_to_dict`).  Call :meth:`wrote`
        once the line is durable."""
        if self.version < FORMAT_VERSION:
            return checkpoint_to_dict(state, self.version)
        truth = state["ground_truth"]
        return {
            "version": FORMAT_VERSION,
            **state,
            "belief": self._changed_groups(state["belief"]),
            "ground_truth": (
                {
                    str(key): truth[key]
                    for key in islice(truth, self._truth, None)
                }
                if truth is not None
                else None
            ),
            "history": [
                round_record_to_dict(record)
                for record in state["history"][self._history :]
            ],
        }

    def _changed_groups(self, belief: FactoredBelief) -> dict:
        written = self._states
        groups: dict[str, dict] = {}
        for index, state in enumerate(belief):
            if index >= len(written):
                groups[str(index)] = {
                    "fact_set": fact_set_to_dict(state.facts),
                    **_weights_to_dict(state, FORMAT_VERSION),
                }
            elif state is not written[index] and not _same_weights(
                state, written[index]
            ):
                groups[str(index)] = _weights_to_dict(state, FORMAT_VERSION)
        return groups

    def wrote(self, state: dict) -> None:
        """Note that the journal's last checkpoint line holds ``state``:
        the line was just appended, or a resume folded it back from the
        journal, so the next line continues the uninterrupted run's."""
        self._states = list(state["belief"])
        self._history = len(state["history"])
        self._truth = len(state["ground_truth"] or ())


def _malformed(field: str, why: str) -> SerializationError:
    return SerializationError(f"malformed checkpoint field {field!r}: {why}")


def _fold_groups(groups: list[dict], written: Any) -> None:
    """Apply one v9 line's ``belief`` member to the latest writes."""
    if not isinstance(written, dict):
        raise _malformed("belief", "not a mapping of group indices")
    for key, entry in written.items():
        index = int(key) if key.isdecimal() else -1
        if str(index) != key or not 0 <= index <= len(groups):
            raise _malformed(
                "belief",
                f"group index {key!r} is neither one of the {len(groups)} "
                "known groups nor the next new one",
            )
        if not isinstance(entry, dict):
            raise _malformed("belief", f"group {key} is not an object")
        if index == len(groups):
            if "fact_set" not in entry:
                raise _malformed("belief", f"new group {key} has no fact set")
            groups.append(entry)
        groups[index] = {
            "version": FORMAT_VERSION,
            "fact_set": groups[index]["fact_set"],
            **entry,
        }


def fold_checkpoints(records) -> dict:
    """The dict ``to_checkpoint()`` returned when the last checkpoint
    line among ``records`` was written.

    ``records`` are a journal's records in order (other kinds are
    skipped), as :func:`read_journal` returns them.  A v9 line is a
    delta (see :class:`CheckpointWriter`): the fold keeps each group's
    latest write, so the probabilities it returns are one belief's
    worth however long the journal, and concatenates the history and
    ground-truth additions.  An older line is whole and is returned as
    it stands.  Malformed v9 members raise :class:`SerializationError`
    naming the field.
    """
    last: Any = None
    groups: list[dict] = []
    history: list = []
    truth: dict = {}
    for record in records:
        if record.get("kind") != "checkpoint":
            continue
        last = _require(record, "session")
        if not isinstance(last, dict):
            raise _malformed("session", "not an object")
        if check_version(last) < FORMAT_VERSION:
            continue
        _fold_groups(groups, _require(last, "belief"))
        added = _require(last, "history")
        if not isinstance(added, list) or not all(
            isinstance(entry, dict) for entry in added
        ):
            raise _malformed("history", "not a list of round records")
        history.extend(added)
        entries = _require(last, "ground_truth")
        if entries is not None:
            if not isinstance(entries, dict):
                raise _malformed("ground_truth", "not a mapping")
            truth.update(entries)
    if last is None:
        raise SerializationError("no checkpoint record to fold")
    if check_version(last) < FORMAT_VERSION:
        return last
    return {
        **last,
        "belief": {"version": FORMAT_VERSION, "groups": groups},
        "ground_truth": truth if last["ground_truth"] is not None else None,
        "history": history,
    }


# ----------------------------------------------------------------------
# session journal (format version 2)
# ----------------------------------------------------------------------
#
# An append-only JSONL file: one JSON object per line.  The first line
# is a ``{"kind": "header", "version": 2, ...}`` record; later lines
# are ``"checkpoint"`` (durable session state) and ``"event"``
# (one fault incident) records.  A process killed mid-write leaves at
# most one truncated final line, which :func:`read_journal` discards —
# the previous checkpoint line is always intact, making resume
# crash-safe by construction.
#
# Since format version 8 every line additionally carries the integrity
# framing: a ``"_seq"`` field (0 on the header, +1 per record) and a
# trailing ``"_crc"`` field holding the CRC32 (hex) of the line's bytes
# before that field, closed with ``}``.  Framing makes interior damage —
# bit-flips, dropped lines, duplicated lines — *detectable*;
# :mod:`repro.storage.integrity` turns detection into recovery.
# Framed journals are still plain JSONL and :func:`read_journal`
# strips the framing fields, so every ``kind``-dispatching consumer is
# untouched.  Whether a journal is framed is decided once, by its
# header: new journals frame iff the header's version is >= 8, and
# appends to an existing journal follow whatever its last record did —
# a resumed v7 journal keeps growing unframed, byte-identical to an
# uninterrupted v7 run.
#
# Since format version 9 a checkpoint line carries only what changed
# since the journal's previous checkpoint line (:class:`CheckpointWriter`)
# and :func:`fold_checkpoints` rebuilds the whole checkpoint.  Which
# lines a journal receives is decided by its header too: a journal
# whose header predates v9 keeps receiving whole version-8 lines.
#
# Every reader goes through one scanner, :func:`verify_journal` — the
# only code that splits a journal into lines and parses them, bar
# ``_journal_state``'s cold-cache peek at the first and last lines.
# :func:`read_journal` is its strict view, and every cut (repairing a
# torn tail, trimming back to a checkpoint, salvaging a damaged prefix)
# truncates at an offset it returned, through
# :meth:`JournalDamageReport.cut`.

#: Fields reserved for the v8 integrity framing.
_FRAME_FIELDS = ("_seq", "_crc")

#: Per-path append cache: ``str(path) -> (file_size, next_seq,
#: version)`` where ``next_seq`` is ``None`` for unframed journals and
#: ``version`` is the header's.  Validated against the current file
#: size on every append (an externally modified file misses and
#: triggers a rescan), so appends stay O(1) without ever trusting a
#: stale sequence number.  Appends, clean scans and cuts keep it
#: primed.
_SEQ_CACHE: dict[str, tuple[int, int | None, int]] = {}


def invalidate_journal_cache(path: str | Path) -> None:
    """Drop the append cache for ``path`` (a rolled-back append, or a
    file changed behind the cache)."""
    _SEQ_CACHE.pop(str(Path(path)), None)


_SEPARATORS = (",", ":")

#: Start of the fixed ``,"_crc":"xxxxxxxx"}`` tail of a framed line.
_CRC_PREFIX = b',"_crc":"'
_CRC_TAIL_LENGTH = len(_CRC_PREFIX) + 8 + len(b'"}')


def frame_journal_line(record: dict, seq: int) -> str:
    """``record`` as a v8-framed JSONL line (no trailing newline).

    The body is the record's compact JSON with ``"_seq"`` appended as
    its last member.  The CRC32 of the body's bytes is then written
    as 8 lowercase hex digits in a final ``"_crc"`` member, so the
    line is the body minus its closing ``}`` followed by the fixed
    ``,"_crc":"xxxxxxxx"}`` tail.  :func:`verify_framed_record` checks
    exactly those bytes.  ``record`` must have at least one member and
    no frame fields.
    """
    body = json.dumps(record, separators=_SEPARATORS)
    payload = f'{body[:-1]},"_seq":{int(seq)}}}'
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f'{payload[:-1]},"_crc":"{crc:08x}"}}'


def verify_framed_record(line: bytes, record: dict) -> str | None:
    """Check one framed journal line; ``None`` if intact.

    ``line`` is the raw line without its newline and ``record`` what
    it parsed to.  Returns ``"unframed"`` when the record lacks an
    integer ``"_seq"`` or a string ``"_crc"``, and ``"crc_mismatch"``
    when the line does not end in the fixed ``,"_crc":"xxxxxxxx"}``
    tail (8 lowercase hex digits, ``"_crc"`` last) or those digits are
    not the CRC32 of the bytes before the tail plus ``}`` — the bytes
    :func:`frame_journal_line` covered.  The check reads the line's own
    bytes, never a re-encoding of ``record``, so any changed byte is a
    mismatch, even one that parses to the same value (``1e-05`` read as
    ``1E-05``).
    """
    if not isinstance(record.get("_crc"), str) or not _is_int(
        record.get("_seq")
    ):
        return "unframed"
    body_end = len(line) - _CRC_TAIL_LENGTH
    if (
        body_end < 0
        or line[body_end : body_end + len(_CRC_PREFIX)] != _CRC_PREFIX
        or line[-2:] != b'"}'
    ):
        return "crc_mismatch"
    crc = zlib.crc32(b"}", zlib.crc32(memoryview(line)[:body_end]))
    if line[-10:-2] != b"%08x" % crc:
        return "crc_mismatch"
    return None


def strip_frame(record: dict) -> dict:
    """``record`` without the v8 framing fields (no-op when unframed)."""
    if "_seq" not in record and "_crc" not in record:
        return record
    return {
        key: value
        for key, value in record.items()
        if key not in _FRAME_FIELDS
    }


def _header_version(record: Any) -> int:
    """The version a journal's first record declares (1 when it is not
    a header with an integer version)."""
    if isinstance(record, dict) and record.get("kind") == "header":
        version = record.get("version", 1)
        if _is_int(version):
            return version
    return 1


def _journal_state(path: Path, record: dict) -> tuple[int | None, int]:
    """The sequence number the next append must carry (``None``:
    journal is unframed) and the journal's header version.  New/empty
    files frame iff the first record is a header of version >= 8 (and
    take the current version until a header says otherwise); existing
    files follow the last parseable line and their first line."""
    key = str(path)
    try:
        size = path.stat().st_size
    except OSError:
        size = 0
    if size == 0:
        if record.get("kind") != "header":
            return None, FORMAT_VERSION
        version = _header_version(record)
        return (0 if version >= 8 else None), version
    cached = _SEQ_CACHE.get(key)
    if cached is not None and cached[0] == size:
        return cached[1], cached[2]
    lines = path.read_bytes().splitlines()
    next_seq: int | None = None
    for line in reversed(lines):
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue  # torn/corrupt tail; recovery trims before appends
        if isinstance(parsed, dict) and isinstance(
            parsed.get("_seq"), int
        ):
            next_seq = parsed["_seq"] + 1
        break
    try:
        version = _header_version(json.loads(lines[0]))
    except (json.JSONDecodeError, UnicodeDecodeError):
        version = FORMAT_VERSION  # a damaged header; recovery decides
    _SEQ_CACHE[key] = (size, next_seq, version)
    return next_seq, version


def journal_version(path: str | Path) -> int:
    """The header version of the journal at ``path``, learned the way
    its framing is (from the append cache, else from the file): what
    :func:`payload_version` continues it in.  A missing or empty
    journal takes the current version."""
    return _journal_state(Path(path), {})[1]


def append_journal_record(path: str | Path, record: dict) -> None:
    """Append one record to a JSONL journal (creates parents/file).

    The record is written as a single line, flushed and fsynced before
    returning, so at most the final in-flight line can be lost to a
    crash — and a completed append survives power loss, not just a
    process kill.  On v8+ journals the line carries the integrity
    framing (see :func:`frame_journal_line`).

    Transient storage faults retry with backoff after rolling the file
    back to its pre-append size; non-transient faults and exhausted
    retries raise :class:`StorageFailure` — again after rollback, so a
    failed append never leaves a torn line for the next writer to glue
    onto.
    """
    if not isinstance(record, dict) or "kind" not in record:
        raise SerializationError("journal records need a 'kind' field")
    for reserved in _FRAME_FIELDS:
        if reserved in record:
            raise SerializationError(
                f"{reserved!r} is reserved for the journal framing"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    seq, version = _journal_state(path, record)
    line = (
        frame_journal_line(record, seq)
        if seq is not None
        else json.dumps(record, separators=_SEPARATORS)
    )
    size = _durable_append(path, (line + "\n").encode("utf-8"))
    _SEQ_CACHE[str(path)] = (
        size, seq + 1 if seq is not None else None, version
    )


def _durable_append(path: Path, data: bytes) -> int:
    """Append ``data`` with flush + fsync; returns the new file size.

    The storage-chaos hook lives here: every attempt draws one action
    for this path's next write index, injected faults roll the file
    back and (when transient) retry, and a ``bitflip`` goes through
    "successfully" — silent corruption is exactly what the v8 framing
    exists to catch later.
    """
    try:
        base_size = path.stat().st_size
    except OSError:
        base_size = 0
    chaos = active_storage_chaos()
    last_error: OSError | None = None
    for attempt in range(_WRITE_ATTEMPTS):
        action = key = None
        index = 0
        if chaos is not None:
            action, key, index = chaos.next_action(path)
        try:
            payload = data
            if action == "enospc":
                raise OSError(
                    errno.ENOSPC, "injected ENOSPC (storage chaos)"
                )
            if action == "bitflip":
                payload = chaos.plan.flip_bit(data, key, index)
            with path.open("ab") as handle:
                if action == "short_write":
                    handle.write(payload[: max(1, len(payload) // 2)])
                    handle.flush()
                    raise OSError(
                        errno.EIO, "injected short write (storage chaos)"
                    )
                handle.write(payload)
                handle.flush()
                if action == "fsync_error":
                    raise OSError(
                        errno.EIO,
                        "injected fsync failure (storage chaos)",
                    )
                os.fsync(handle.fileno())
            return base_size + len(payload)
        except OSError as error:
            last_error = error
            _rollback_partial_append(path, base_size)
            if error.errno not in _TRANSIENT_ERRNOS:
                raise StorageFailure(
                    f"append to {path} failed with a non-transient "
                    f"fault: {error}",
                    path=path,
                    attempts=attempt + 1,
                ) from error
            if attempt + 1 < _WRITE_ATTEMPTS:
                _retry_delay(attempt)
    raise StorageFailure(
        f"append to {path} still failing after {_WRITE_ATTEMPTS} "
        f"attempts: {last_error}",
        path=path,
        attempts=_WRITE_ATTEMPTS,
    ) from last_error


def _truncate(path: Path, size: int) -> None:
    with path.open("r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


def _rollback_partial_append(path: Path, size: int) -> None:
    """Truncate a failed append back to the pre-append size.

    If even this fails, the journal tail is untrustworthy and nothing
    in-process can fix it: drop a ``.failstop.json`` marker and
    fail-stop.
    """
    invalidate_journal_cache(path)
    try:
        current = path.stat().st_size
    except OSError:
        return  # the file never materialized; nothing to roll back
    if current <= size:
        return
    try:
        _truncate(path, size)
    except OSError as error:
        _write_failstop_marker(
            path, f"rollback of a torn append to {size} bytes failed: "
            f"{error}"
        )
        raise StorageFailure(
            f"could not roll back a torn append to {path}: {error}",
            path=path,
        ) from error





@dataclass(frozen=True)
class JournalDamage:
    """One problem found in a journal: where, what, and why."""

    line: int  # 1-indexed line number
    kind: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"line": self.line, "kind": self.kind, "detail": self.detail}


@dataclass
class JournalDamageReport:
    """The verdict of one :func:`verify_journal` /
    :func:`~repro.storage.integrity.recover_journal`.

    ``records`` holds the verified prefix's records with framing
    stripped — what a :func:`read_journal` of the recovered file
    returns — and ``ends`` the byte offset just past each one's line,
    so callers that verify, cut and read touch the file once.
    """

    path: Path
    version: int | None
    framed: bool
    total_lines: int
    verified_records: int
    prefix_bytes: int
    damage: tuple[JournalDamage, ...]
    records: list = field(default_factory=list, repr=False)
    ends: list = field(default_factory=list, repr=False)
    salvaged_bytes: int = 0
    sidecar: Path | None = None

    @property
    def clean(self) -> bool:
        return not self.damage

    @property
    def tail_only(self) -> bool:
        """Whether all damage is the plain crash signature (a torn
        final line and nothing after it)."""
        return all(entry.kind == "torn_tail" for entry in self.damage)

    def strict_records(self) -> list[dict]:
        """The records, refusing what :func:`read_journal` refuses:
        damage beyond a torn tail still on disk (salvage has not cut
        it off), or no records."""
        if not (self.tail_only or self.salvaged_bytes):
            first = self.damage[0]
            raise SerializationError(
                f"corrupt journal {self.path}, line {first.line}: "
                f"{first.kind} ({first.detail})"
            )
        if not self.records:
            raise SerializationError(
                f"journal {self.path} contains no records"
            )
        return self.records

    def cut(self, end: int, kept: int) -> int:
        """Durably truncate the journal to ``end`` bytes, where its
        first ``kept`` records end; returns the bytes removed.

        The one truncate → flush → fsync → directory fsync sequence
        behind every repair, trim and salvage.  The append cache is
        left primed with the new size and next sequence number, so the
        first append after a cut reads nothing.
        """
        removed = self.path.stat().st_size - end
        if removed <= 0:
            return 0
        _truncate(self.path, end)
        # A crash right after the truncate could otherwise resurrect the
        # cut bytes on filesystems that journal directory metadata
        # lazily.
        _fsync_directory(self.path.parent)
        _SEQ_CACHE[str(self.path)] = (
            end, kept if self.framed else None,
            self.version or FORMAT_VERSION,
        )
        return removed

    def cut_torn_tail(self) -> int:
        """Cut a crash's torn tail (and blank lines before it) back to
        the last verified record.  Damage beyond a torn tail is left
        alone: it is salvage's to decide, and legacy journals never
        have it cut."""
        if not self.tail_only:
            return 0
        return self.cut(
            self.ends[-1] if self.ends else 0, len(self.records)
        )

    def cut_after_last(self, kinds: tuple[str, ...]) -> int:
        """Cut the journal right after its last verified record of one
        of ``kinds``; returns the bytes removed (0 without one).  Like
        :meth:`cut_torn_tail`, leaves unsalvaged damage alone."""
        if self.tail_only or self.salvaged_bytes:
            for index in range(len(self.records) - 1, -1, -1):
                if self.records[index]["kind"] in kinds:
                    return self.cut(self.ends[index], index + 1)
        return 0

    def as_dict(self) -> dict:
        return {
            "path": str(self.path),
            "version": self.version,
            "framed": self.framed,
            "total_lines": self.total_lines,
            "verified_records": self.verified_records,
            "prefix_bytes": self.prefix_bytes,
            "clean": self.clean,
            "tail_only": self.tail_only,
            "salvaged_bytes": self.salvaged_bytes,
            "sidecar": str(self.sidecar) if self.sidecar else None,
            "damage": [entry.as_dict() for entry in self.damage],
        }


def verify_journal(path: str | Path) -> JournalDamageReport:
    """Scan a journal without modifying it.

    The verified prefix is the longest run of leading lines in which
    every line parses into a ``kind`` record, the first is a supported
    header, and — for framed journals — every CRC is true and the
    sequence numbers are contiguous from 0.  The scan stops at the
    first problem; everything after it is reported as one
    ``unverified_suffix`` entry.  A clean scan leaves the append cache
    primed, as a cut does.
    """
    path = Path(path)
    return _verify_journal_bytes(path, path.read_bytes())


def _verify_journal_bytes(path: Path, raw: bytes) -> JournalDamageReport:
    """:func:`verify_journal` of ``raw``, the bytes just read from
    ``path``; a salvage keeps them for its sidecar."""
    lines = raw.splitlines(keepends=True)
    records: list[dict] = []
    ends: list[int] = []
    damage: list[JournalDamage] = []
    version: int | None = None
    framed = False
    prefix_bytes = offset = 0
    for index, line in enumerate(lines):
        offset += len(line)
        if line.isspace():
            # Blank separators carry no records; fold them into the
            # prefix so salvage does not truncate harmless whitespace.
            prefix_bytes = offset
            continue
        problem = detail = None
        if not line.endswith(b"\n"):
            problem, detail = "torn_tail", "unterminated final line"
        else:
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                # A flipped high bit makes the line invalid UTF-8, not
                # just invalid JSON — same damage class either way.
                final = offset == len(raw)  # nothing but this line left
                problem = "torn_tail" if final else "parse_error"
                detail = str(error)
        if problem is None and (
            not isinstance(record, dict) or "kind" not in record
        ):
            problem, detail = "bad_record", "not a 'kind' record object"
        if problem is None and not records:
            # Framing detection is redundant on purpose: a supported
            # v8+ version declaration OR the presence of either frame
            # field (reserved keys no legacy record can carry).  A
            # single bit-flip can erase one signal but not both, so a
            # damaged header reads as damage rather than demoting the
            # journal to unverifiable legacy.
            framed = "_seq" in record or "_crc" in record
            head_version = record.get("version", 1)
            if record["kind"] != "header":
                problem = "bad_header"
                detail = "journal does not start with a header record"
            elif (
                not _is_int(head_version)
                or head_version not in SUPPORTED_VERSIONS
            ):
                problem = "bad_header"
                detail = f"unsupported version {head_version!r}"
            else:
                version = head_version
                framed = framed or head_version >= 8
        if problem is None and framed:
            # The CRC covers the line's own bytes; a memoryview drops
            # the terminator without copying a megabyte checkpoint.
            terminator = 2 if line.endswith(b"\r\n") else 1
            detail = verify_framed_record(
                memoryview(line)[:-terminator], record
            )
            seq = record.get("_seq")
            if detail is not None:
                problem = "crc_mismatch"
            elif seq < len(records):
                problem = "seq_duplicate"
                detail = f"seq {seq} repeats (expected {len(records)})"
            elif seq > len(records):
                problem = "seq_gap"
                detail = f"seq jumps to {seq} (expected {len(records)})"
        if problem is not None:
            damage.append(JournalDamage(index + 1, problem, detail))
            trailing = [
                later
                for later in range(index + 1, len(lines))
                if not lines[later].isspace()
            ]
            if trailing:
                damage.append(
                    JournalDamage(
                        trailing[0] + 1,
                        "unverified_suffix",
                        f"{len(trailing)} lines after the first "
                        "damaged line",
                    )
                )
            total_lines = len(records) + 1 + len(trailing)
            break
        records.append(strip_frame(record))
        ends.append(offset)
        prefix_bytes = offset
    else:
        total_lines = len(records)
        _SEQ_CACHE[str(path)] = (
            len(raw), len(records) if framed else None,
            version or FORMAT_VERSION,
        )
    if damage and not records and not framed:
        # The header vouched for nothing (unparseable or not a
        # header), so the journal's provenance is unknown.  Sniff the
        # remaining lines for frame fields — reserved keys no legacy
        # record can carry — so a framed journal with a destroyed
        # header is still salvaged (to its empty prefix, original
        # preserved in the sidecar) instead of being mistaken for an
        # uncuttable legacy file.
        for line in lines:
            try:
                candidate = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(candidate, dict) and (
                "_seq" in candidate or "_crc" in candidate
            ):
                framed = True
                break
    return JournalDamageReport(
        path=path,
        version=version,
        framed=framed,
        total_lines=total_lines,
        verified_records=len(records),
        prefix_bytes=prefix_bytes,
        damage=tuple(damage),
        records=records,
        ends=ends,
    )


def read_journal(path: str | Path) -> list[dict]:
    """Read a JSONL journal written by :func:`append_journal_record`.

    The strict view of :func:`verify_journal`: a torn final line (the
    signature of a crash mid-append) is silently dropped, and any
    other damage raises :class:`SerializationError` — a malformed
    interior line, a missing or unsupported header, and on a framed
    (v8) journal an interior bit-flip, dropped line or duplicated line
    (a wrong CRC or sequence number), instead of feeding corrupted
    state into a resume.  Callers that want salvage instead of refusal
    run :func:`repro.storage.integrity.recover_journal` first.  The
    framing fields are stripped from the returned records, so
    consumers see the same shapes as for v1–v7 journals.
    """
    return verify_journal(path).strict_records()


def repair_journal(path: str | Path) -> bool:
    """Truncate a torn trailing line left by a crash mid-append.

    :func:`read_journal` already *ignores* a torn final line, but the
    bytes stay in the file — and the next :func:`append_journal_record`
    would glue its record onto the torn fragment, corrupting the
    journal.  Resuming runtimes cut it first so their appends continue
    the journal byte-identically to an uninterrupted run.  Damage
    beyond a torn tail is left for
    :func:`~repro.storage.integrity.recover_journal`.  Returns ``True``
    when bytes were removed.
    """
    path = Path(path)
    if not path.exists():
        return False
    return verify_journal(path).cut_torn_tail() > 0


def trim_journal_to_last_checkpoint(path: str | Path) -> int:
    """Drop journal records trailing the last intact checkpoint.

    A crash can land between a checkpoint and the next one, leaving the
    in-flight round's event records journaled.  Resume replays that
    round from the checkpoint and re-journals the same records
    byte-for-byte (the replay is deterministic: the checkpoint rewinds
    the session, fault and answer-source RNG states), so the trailing
    lines are removed first — otherwise they would appear twice and the
    resumed journal could never match an uninterrupted run's.  Salvage
    first (:func:`~repro.storage.integrity.recover_journal`): damage
    beyond a torn tail is never cut here.  Returns the number of bytes
    removed.
    """
    return verify_journal(path).cut_after_last(("checkpoint",))


def header_field(header: dict, name: str, kind: type = float):
    """A journal record's numeric field (the header's ``budget_total``
    and ``k``) as ``kind``: a missing,
    ``null`` or malformed value raises :class:`SerializationError`
    naming the field instead of a raw ``KeyError`` / ``TypeError`` /
    ``ValueError``."""
    value = header.get(name)
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
        or (kind is int and not _is_int(value))
    ):
        raise SerializationError(
            f"malformed journal {header.get('kind', 'header')} field "
            f"{name!r}: {value!r}"
        )
    return kind(value)


def start_journal(
    path: str | Path, budget_total: float, k: int, metadata=None
) -> None:
    """Open a journal: the header (format version, ``budget_total`` and
    ``k``, which :func:`header_field` reads back on resume), then the
    caller's metadata record or records (each needs a ``"kind"``)."""
    append_journal_record(
        path,
        {
            "kind": "header",
            "version": FORMAT_VERSION,
            "budget_total": float(budget_total),
            "k": int(k),
        },
    )
    for record in [metadata] if isinstance(metadata, Mapping) else (
        metadata or ()
    ):
        append_journal_record(path, record)
