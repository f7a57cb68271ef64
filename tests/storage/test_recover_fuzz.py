"""Seeded fuzzing of journal damage detection and salvage.

The deeper counterpart of ``tests/core/test_journal_fuzz.py``: instead
of crash truncation, these properties plant *storage*-grade damage —
single bit-flips at arbitrary byte positions (even ones that leave the
line parsing to the same record), re-framed sequence
numbers with valid CRCs, redelivered (duplicated) line suffixes — and
hold :func:`~repro.storage.integrity.recover_journal` to its contract:

* whatever survives salvage is a byte-prefix of what the writer
  produced, and reads back as a record-prefix of the original log;
* anything beyond a plain torn tail leaves the damaged original in a
  ``.damaged`` sidecar before the file is cut;
* a second recovery pass is clean and changes nothing;
* legacy (v7, unframed) journals are never cut at interior damage —
  trim-tail-only, evidence left in place.

Derandomized, so CI failures replay exactly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialization import (
    SerializationError,
    append_journal_record,
    frame_journal_line,
    read_journal,
)
from repro.storage import recover_journal, verify_journal

pytestmark = pytest.mark.chaos

BODY_KINDS = ("metadata", "round", "checkpoint", "incident", "final")

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

journal_kinds = st.lists(st.sampled_from(BODY_KINDS), min_size=2, max_size=10)


def _write_journal(path: Path, kinds, version: int = 8):
    # The exponent float and the escaped non-ASCII text carry the flips
    # that parse to the same record: ``e`` -> ``E`` in ``1.25e-05`` and
    # the case of a hex digit in an escape (``\u00e9`` -> ``\u00E9``).
    records = [{"kind": "header", "version": version}]
    records += [
        {
            "kind": kind,
            "index": index,
            "payload": {
                "value": index * 3,
                "rate": 1.25e-05 * (index + 1),
                "note": "café ÿ ꯍ",
            },
        }
        for index, kind in enumerate(kinds)
    ]
    for record in records:
        append_journal_record(path, record)
    return records


def _check_salvage(path: Path, raw: bytes, records):
    """The salvage contract, shared by every framed property."""
    report = recover_journal(path)
    assert not report.clean
    salvaged = path.read_bytes()
    assert raw.startswith(salvaged), "salvage must keep writer bytes only"
    if report.verified_records:
        assert read_journal(path) == records[: report.verified_records]
    if not report.tail_only:
        assert report.sidecar is not None and report.sidecar.exists()
    # idempotent: the second pass sees a clean journal
    again = recover_journal(path)
    assert again.clean
    assert path.read_bytes() == salvaged
    return report


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_any_single_bit_flip_is_detected_and_salvaged(kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t" / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        raw = path.read_bytes()
        position = data.draw(
            st.integers(0, len(raw) - 1), label="position"
        )
        bit = data.draw(st.integers(0, 7), label="bit")
        flipped = bytearray(raw)
        flipped[position] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        report = _check_salvage(path, raw, records)
        # the verified prefix never includes the flipped byte
        assert report.prefix_bytes <= position + 1


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_reframed_sequence_numbers_read_as_gap_or_duplicate(kinds, data):
    # valid JSON, valid CRC — only the sequence number lies: the
    # signature of a dropped or replayed line rather than a bit-flip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t" / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        victim = data.draw(
            st.integers(1, len(lines) - 1), label="victim"
        )
        delta = data.draw(
            st.integers(-victim, 5).filter(lambda d: d != 0),
            label="delta",
        )
        lines[victim] = (
            frame_journal_line(records[victim], victim + delta) + "\n"
        ).encode("utf-8")
        path.write_bytes(b"".join(lines))
        with pytest.raises(SerializationError):
            read_journal(path)
        report = _check_salvage(path, raw, records)
        expected = "seq_gap" if delta > 0 else "seq_duplicate"
        assert report.damage[0].kind == expected
        assert report.damage[0].line == victim + 1
        assert report.verified_records == victim


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_redelivered_suffix_is_trimmed_back_to_the_original(kinds, data):
    # a resumed writer replaying lines it already wrote: every byte is
    # individually valid, but the sequence numbers repeat
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t" / "fuzz.jsonl"
        records = _write_journal(path, kinds)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        start = data.draw(
            st.integers(1, len(lines) - 1), label="start"
        )
        path.write_bytes(raw + b"".join(lines[start:]))
        report = _check_salvage(path, raw, records)
        assert report.damage[0].kind == "seq_duplicate"
        # nothing the writer meant to keep was lost
        assert path.read_bytes() == raw
        assert read_journal(path) == records


@FUZZ
@given(kinds=journal_kinds, data=st.data())
def test_legacy_journals_are_never_cut_at_interior_damage(kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t" / "fuzz.jsonl"
        _write_journal(path, kinds, version=7)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        victim = data.draw(
            st.integers(0, len(lines) - 2), label="victim"
        )
        lines[victim] = b'{"kind": torn-open\n'
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        report = recover_journal(path)
        assert not report.clean and not report.framed
        # reported, not cut: unframed lines carry no integrity frame,
        # so truncating at an interior line could discard good records
        assert path.read_bytes() == damaged
        assert report.sidecar is None
        assert report.salvaged_bytes == 0


def _damage(raw: bytes, kinds: list[str], data) -> bytes:
    """Apply each drawn damage kind to ``raw`` in turn."""
    for kind in kinds:
        lines = raw.splitlines(keepends=True)
        if not lines:
            break
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
        elif kind == "bitflip":
            position = data.draw(
                st.integers(0, len(raw) - 1), label="position"
            )
            flipped = bytearray(raw)
            flipped[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            raw = bytes(flipped)
        elif kind == "duplicate":
            index = data.draw(
                st.integers(0, len(lines) - 1), label="duplicated"
            )
            lines.insert(index, lines[index])
            raw = b"".join(lines)
        elif kind == "reorder":
            raw = b"".join(data.draw(st.permutations(lines), label="order"))
        else:
            index = data.draw(st.integers(0, len(lines)), label="blank")
            lines.insert(index, b"\n")
            raw = b"".join(lines)
    return raw


@settings(FUZZ, max_examples=200)
@given(
    kinds=journal_kinds,
    version=st.sampled_from([7, 8]),
    damage=st.lists(
        st.sampled_from(
            ["truncate", "bitflip", "duplicate", "reorder", "blank"]
        ),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_read_journal_is_the_strict_view_of_verify_journal(
    kinds, version, damage, data
):
    # The two readers can never disagree: read_journal returns exactly
    # the verified records when every damage entry is a torn tail (and
    # there are records), and refuses everything else — so no caller
    # that reads before recovering refuses a journal recovery accepts.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t" / "fuzz.jsonl"
        _write_journal(path, kinds, version=version)
        path.write_bytes(_damage(path.read_bytes(), damage, data))
        report = verify_journal(path)
        if report.tail_only and report.records:
            assert read_journal(path) == report.records
        else:
            with pytest.raises(SerializationError):
                read_journal(path)


@pytest.mark.parametrize("version", [7, 8])
def test_high_bit_flip_in_the_final_line_reads_as_a_torn_tail(
    tmp_path, version
):
    # regression: read_journal decoded the whole file as UTF-8 first,
    # so one flipped high bit in a terminated final line made it refuse
    # a journal that verify_journal (and recovery) calls a torn tail
    path = tmp_path / "t" / "run.jsonl"
    records = _write_journal(path, ["round", "checkpoint"], version=version)
    raw = bytearray(path.read_bytes())
    final_line = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    raw[final_line + 2] ^= 0x80
    path.write_bytes(bytes(raw))
    report = verify_journal(path)
    assert [entry.kind for entry in report.damage] == ["torn_tail"]
    assert read_journal(path) == report.records == records[:-1]
