"""Seeded fuzzing of the journal readers and repair helpers.

Crash recovery rests on one scanner,
:func:`~repro.core.serialization.verify_journal`, and three views of
it — :func:`~repro.core.serialization.read_journal` (its strict view),
:func:`~repro.core.serialization.repair_journal` and
:func:`~repro.core.serialization.trim_journal_to_last_checkpoint`
(cuts at offsets it returned) — holding their contracts against
whatever a kill leaves on disk.  The properties fuzzed here
(derandomized, so CI failures replay exactly):

* a mid-record truncation of the tail is survivable: ``read_journal``
  ignores the torn final line, ``repair_journal`` removes it and is
  idempotent;
* on *legacy* (v7, unframed) journals duplicated or reordered body
  lines never crash the reader (each line is still a record), while on
  framed (v8) journals the same damage is *detected* — the sequence
  numbers make reorder/duplication corruption rather than noise — and
  :func:`~repro.storage.integrity.recover_journal` salvages the
  verified prefix;
* corruption of an interior line raises ``SerializationError`` rather
  than silently skipping;
* after ``trim_journal_to_last_checkpoint`` the journal ends on a
  checkpoint whenever one exists, the trim is idempotent, and a
  checkpoint-free journal is untouched.

The deeper storage-fault fuzzing (bit-flips, CRC mismatches, sequence
gaps, sidecar flows) lives in ``tests/storage/test_recover_fuzz.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialization import (
    FORMAT_VERSION,
    SerializationError,
    append_journal_record,
    read_journal,
    repair_journal,
    trim_journal_to_last_checkpoint,
)

BODY_KINDS = ("metadata", "round", "checkpoint", "incident", "final")


def _record(kind: str, index: int) -> dict:
    return {"kind": kind, "index": index, "payload": {"value": index * 3}}


def _write_journal(
    path: Path, kinds: list[str], version: int = FORMAT_VERSION
) -> list[dict]:
    records = [{"kind": "header", "version": version}]
    records += [_record(kind, index) for index, kind in enumerate(kinds)]
    for record in records:
        append_journal_record(path, record)
    return records


journal_kinds = st.lists(st.sampled_from(BODY_KINDS), min_size=1, max_size=12)

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_truncated_tail_is_ignored_then_repaired(kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        raw = path.read_bytes()
        header_len = raw.index(b"\n") + 1
        # cut anywhere after the header line, possibly mid-record
        cut = data.draw(
            st.integers(header_len, len(raw) - 1), label="cut"
        )
        path.write_bytes(raw[:cut])
        # pre-repair: the torn final line is silently dropped
        survivors = read_journal(path)
        assert survivors == records[: len(survivors)]
        # repair removes the torn bytes; the reread agrees
        changed = repair_journal(path)
        assert changed == (raw[:cut].rfind(b"\n") != cut - 1)
        assert read_journal(path) == survivors
        # idempotent: nothing further to remove
        before = path.read_bytes()
        assert not repair_journal(path)
        assert path.read_bytes() == before


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_duplicated_and_reordered_body_lines_still_read(kinds, data):
    # Unframed legacy journals carry no sequence numbers, so the reader
    # deliberately tolerates duplicated / reordered body lines — each
    # line is still a record.  Pinned to version 7: the framed reader
    # *rejects* this damage (see the framed counterpart below).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        _write_journal(path, kinds, version=7)
        lines = path.read_bytes().splitlines(keepends=True)
        header, body = lines[0], lines[1:]
        duplicated = data.draw(
            st.integers(0, len(body) - 1), label="duplicated"
        )
        body.insert(duplicated, body[duplicated])
        shuffled = data.draw(st.permutations(body), label="shuffled")
        path.write_bytes(header + b"".join(shuffled))
        records = read_journal(path)
        assert records[0]["kind"] == "header"
        assert len(records) == len(shuffled) + 1
        # every surviving record is one of the originals, bit for bit
        originals = {line for line in body}
        assert all(
            json.dumps(record, separators=(",", ":")).encode() + b"\n"
            in originals
            for record in records[1:]
        )


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_framed_duplication_and_reorder_detected_and_salvaged(kinds, data):
    # On a framed journal the same damage is corruption: the reader
    # raises, and recovery keeps exactly the records before the first
    # out-of-sequence line.
    from repro.storage.integrity import recover_journal

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        lines = path.read_bytes().splitlines(keepends=True)
        header, body = lines[0], lines[1:]
        duplicated = data.draw(
            st.integers(0, len(body) - 1), label="duplicated"
        )
        body.insert(duplicated, body[duplicated])
        shuffled = data.draw(st.permutations(body), label="shuffled")
        path.write_bytes(header + b"".join(shuffled))
        # a duplicated seq means the numbering can never be contiguous
        # from 0, so detection is guaranteed somewhere in the body
        with pytest.raises(SerializationError):
            read_journal(path)
        report = recover_journal(path)
        assert not report.clean
        assert any(
            entry.kind in ("seq_gap", "seq_duplicate")
            for entry in report.damage
        )
        survivors = read_journal(path)
        assert survivors == records[: len(survivors)]
        assert report.sidecar is not None and report.sidecar.exists()


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_interior_corruption_raises_rather_than_skips(kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        _write_journal(path, kinds)
        lines = path.read_bytes().splitlines(keepends=True)
        victim = data.draw(
            st.integers(0, len(lines) - 2), label="victim"
        )
        lines[victim] = b'{"kind": tor\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(SerializationError):
            read_journal(path)


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_trim_lands_on_the_last_checkpoint(kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        raw = path.read_bytes()
        header_len = raw.index(b"\n") + 1
        cut = data.draw(st.integers(header_len, len(raw)), label="cut")
        path.write_bytes(raw[:cut])
        repair_journal(path)
        removed = trim_journal_to_last_checkpoint(path)
        assert removed >= 0
        survivors = read_journal(path)
        assert survivors == records[: len(survivors)]
        if any(record["kind"] == "checkpoint" for record in survivors):
            assert survivors[-1]["kind"] == "checkpoint"
        else:
            # checkpoint-free journals are left exactly as repaired
            assert removed == 0
        # idempotent: a second trim removes nothing
        before = path.read_bytes()
        assert trim_journal_to_last_checkpoint(path) == 0
        assert path.read_bytes() == before
