"""Deterministic journal damage detection and salvage.

Each test plants one specific damage class in a framed (v8) or legacy
(v7) journal and checks the :func:`~repro.storage.integrity.verify_journal`
verdict and the :func:`~repro.storage.integrity.recover_journal`
salvage against the contract: framed journals are truncated to the
longest verified prefix with the original bytes preserved in a
``.damaged`` sidecar (torn tails excepted), legacy journals are
trim-tail-only.  The two header-flip cases are regressions found by
the soak harness: a single bit-flip in the header's own ``_seq`` or
``version`` key must read as corruption, never demote the journal to
unverifiable legacy.  The same-value flips and CRC-tail cases pin that
the CRC is checked over each line's own bytes.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.core.serialization import (
    SerializationError,
    append_journal_record,
    read_journal,
    repair_journal,
)
from repro.storage import recover_journal, verify_journal


def _build(path, *, version=8, rounds=5):
    records = [{"kind": "header", "version": version}]
    records += [
        {"kind": "round", "index": i, "payload": {"value": i * 3}}
        for i in range(rounds - 1)
    ]
    records.append({"kind": "checkpoint", "index": rounds - 1})
    for record in records:
        append_journal_record(path, record)
    return records


def _journal(tmp_path, **kwargs):
    path = tmp_path / "tenant" / "run.jsonl"
    records = _build(path, **kwargs)
    return path, records, path.read_bytes()


class TestVerify:
    def test_clean_journal_reports_clean(self, tmp_path):
        path, records, _ = _journal(tmp_path)
        report = verify_journal(path)
        assert report.clean and report.tail_only
        assert report.framed and report.version == 8
        assert report.verified_records == len(records)
        assert report.records == records
        assert report.prefix_bytes == path.stat().st_size

    def test_empty_file_is_clean_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        report = verify_journal(path)
        assert report.clean
        assert report.verified_records == 0

    def test_unsupported_version_is_bad_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        report = verify_journal(path)
        assert [d.kind for d in report.damage] == ["bad_header"]
        assert report.verified_records == 0

    def test_boolean_version_is_bad_header(self, tmp_path):
        # regression: ``bool`` subclasses ``int``, so ``true`` read as v1
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "header", "version": true}\n')
        report = verify_journal(path)
        assert [d.kind for d in report.damage] == ["bad_header"]
        assert report.verified_records == 0


class TestFramedSalvage:
    def test_torn_tail_trimmed_without_sidecar(self, tmp_path):
        path, records, raw = _journal(tmp_path)
        path.write_bytes(raw[:-7])  # cut mid final line
        report = recover_journal(path)
        assert report.tail_only and not report.clean
        assert report.sidecar is None
        assert report.salvaged_bytes > 0
        assert path.read_bytes() == raw[: report.prefix_bytes]
        assert read_journal(path) == records[:-1]

    def test_interior_flip_truncates_and_keeps_evidence(self, tmp_path):
        path, records, raw = _journal(tmp_path)
        lines = raw.splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"value":3', b'"value":7')
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(SerializationError):
            read_journal(path)
        report = recover_journal(path)
        assert [d.kind for d in report.damage] == [
            "crc_mismatch",
            "unverified_suffix",
        ]
        assert report.damage[0].line == 3
        # salvaged: exactly the bytes before the damaged line
        assert path.read_bytes() == b"".join(lines[:2])
        assert read_journal(path) == records[:2]
        # evidence: the sidecar holds the damaged file verbatim
        assert report.sidecar is not None
        assert report.sidecar.read_bytes() == damaged
        # idempotent: a second pass is clean and leaves both alone
        again = recover_journal(path)
        assert again.clean and again.sidecar is None
        assert report.sidecar.read_bytes() == damaged

    def test_dropped_line_is_a_sequence_gap(self, tmp_path):
        path, records, raw = _journal(tmp_path)
        lines = raw.splitlines(keepends=True)
        del lines[2]
        path.write_bytes(b"".join(lines))
        report = recover_journal(path)
        assert report.damage[0].kind == "seq_gap"
        assert read_journal(path) == records[:2]

    def test_duplicated_line_is_a_sequence_duplicate(self, tmp_path):
        path, records, raw = _journal(tmp_path)
        lines = raw.splitlines(keepends=True)
        lines.insert(3, lines[2])
        path.write_bytes(b"".join(lines))
        report = recover_journal(path)
        assert report.damage[0].kind == "seq_duplicate"
        assert read_journal(path) == records[:3]

    def test_resume_grade_prefix_is_byte_prefix_of_original(self, tmp_path):
        # the salvage contract the whole recovery stack rests on: what
        # recover_journal leaves behind is bytes the writer produced
        path, _, raw = _journal(tmp_path)
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(flipped))
        recover_journal(path)
        assert raw.startswith(path.read_bytes())


class TestLegacyJournals:
    def test_interior_damage_reported_but_never_cut(self, tmp_path):
        path, _, _ = _journal(tmp_path, version=7)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        lines[2] = b'{"kind": broken\n'
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        report = recover_journal(path)
        assert not report.clean and not report.framed
        assert report.damage[0].kind == "parse_error"
        # refusal: unframed interior lines have nothing vouching for
        # them, so the file is left exactly as found — no sidecar
        assert path.read_bytes() == damaged
        assert report.sidecar is None
        assert report.salvaged_bytes == 0

    def test_torn_tail_still_trimmed(self, tmp_path):
        path, records, raw = _journal(tmp_path, version=7)
        path.write_bytes(raw[:-5])
        report = recover_journal(path)
        assert report.tail_only
        assert report.salvaged_bytes > 0
        assert path.read_bytes() == raw[: report.prefix_bytes]
        assert read_journal(path) == records[:-1]


class TestHeaderFlipRegressions:
    """A flipped bit in the header's self-description must not defeat
    the framing — both cases were caught live by ``repro soak``."""

    def test_flip_in_the_seq_key_reads_as_damage(self, tmp_path):
        path, _, raw = _journal(tmp_path)
        path.write_bytes(raw.replace(b'"_seq":0', b'"_suq":0', 1))
        report = verify_journal(path)
        assert report.framed, "frame fields present: still a v8 journal"
        assert not report.clean
        assert report.damage[0].line == 1
        assert report.verified_records == 0

    def test_flip_in_the_version_key_reads_as_damage(self, tmp_path):
        path, _, raw = _journal(tmp_path)
        path.write_bytes(raw.replace(b'"version":8', b'"versiol":8', 1))
        report = verify_journal(path)
        assert report.framed, "frame fields present: still a v8 journal"
        assert not report.clean
        assert report.damage[0].line == 1
        assert report.verified_records == 0


def _rewrite_line(path, raw, index, line: bytes) -> None:
    lines = raw.splitlines(keepends=True)
    lines[index] = line + b"\n"
    path.write_bytes(b"".join(lines))


class TestSameValueFlips:
    """One flipped bit that leaves the line parsing to the same record.

    Both flips below re-encode to the original bytes, so a CRC over a
    re-encoding of the parsed record called them clean and the flipped
    byte stayed in the prefix recovery keeps.  The CRC is now checked
    over the line's own bytes.
    """

    @pytest.mark.parametrize(
        "original, flipped",
        [(b"1.25e-05", b"1.25E-05"), (b"\\u00e9", b"\\u00E9")],
        ids=["float-exponent", "escape-hex-digit"],
    )
    def test_flip_reads_as_crc_mismatch(self, tmp_path, original, flipped):
        path = tmp_path / "tenant" / "run.jsonl"
        records = [
            {"kind": "header", "version": 8},
            {"kind": "round", "rate": 1.25e-05, "note": "café"},
            {"kind": "checkpoint", "index": 2},
        ]
        for record in records:
            append_journal_record(path, record)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        assert lines[1].count(original) == 1
        damaged = raw.replace(original, flipped)
        changed = [a ^ b for a, b in zip(raw, damaged) if a != b]
        assert changed == [0x20], "a single flipped bit"
        assert json.loads(damaged.splitlines()[1]) == json.loads(lines[1])
        path.write_bytes(damaged)
        report = verify_journal(path)
        assert [d.kind for d in report.damage] == [
            "crc_mismatch",
            "unverified_suffix",
        ]
        assert report.damage[0].line == 2
        with pytest.raises(SerializationError, match="crc_mismatch"):
            read_journal(path)
        recover_journal(path)
        assert path.read_bytes() == lines[0]
        assert read_journal(path) == records[:1]

    def test_newline_flipped_to_vertical_tab_is_damage(self, tmp_path):
        # regression: read_journal split decoded text on every Unicode
        # line boundary, so "\n" -> "\x0b" still read as two intact
        # lines while verify_journal reported a parse error
        path, _, raw = _journal(tmp_path)
        end_of_line_2 = raw.index(b"\n", raw.index(b"\n") + 1)
        flipped = bytearray(raw)
        flipped[end_of_line_2] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(SerializationError, match="line 2"):
            read_journal(path)
        assert verify_journal(path).damage[0].line == 2


class TestCrcTail:
    """The CRC must be the line's final member, as exactly 8 lowercase
    hex digits; each rendering below parses to the right value but is
    not what the writer produces."""

    @pytest.mark.parametrize(
        "render",
        [
            lambda crc: "0" + crc,
            lambda crc: "0x" + crc,
            lambda crc: " " + crc,
            str.upper,
        ],
        ids=["nine-digits", "hex-prefix", "padded", "uppercase"],
    )
    def test_malformed_crc_digits_are_a_mismatch(self, tmp_path, render):
        path, _, raw = _journal(tmp_path)
        line = raw.splitlines()[2]
        crc = json.loads(line)["_crc"]
        assert render(crc) != crc and int(render(crc), 16) == int(crc, 16)
        _rewrite_line(
            path, raw, 2,
            line.replace(crc.encode(), render(crc).encode()),
        )
        report = verify_journal(path)
        assert report.damage[0].kind == "crc_mismatch"
        assert report.damage[0].line == 3
        with pytest.raises(SerializationError, match="crc_mismatch"):
            read_journal(path)

    def test_crc_that_is_not_the_final_member_is_a_mismatch(self, tmp_path):
        path, _, raw = _journal(tmp_path)
        line = raw.splitlines()[2]
        framed = json.loads(line)
        moved = {"_crc": framed.pop("_crc"), **framed}
        _rewrite_line(
            path, raw, 2,
            json.dumps(moved, separators=(",", ":")).encode(),
        )
        report = verify_journal(path)
        assert report.damage[0].kind == "crc_mismatch"
        assert report.damage[0].line == 3
        with pytest.raises(SerializationError, match="crc_mismatch"):
            read_journal(path)


class TestDurability:
    def test_repair_journal_fsyncs_the_directory(self, tmp_path, monkeypatch):
        # regression: the truncation used to reach the file but not its
        # directory entry, so a crash right after repair could resurrect
        # the torn bytes
        path, _, raw = _journal(tmp_path)
        path.write_bytes(raw[:-5])
        synced_dirs = []
        real_fsync = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        assert repair_journal(path)
        assert synced_dirs, "repair must fsync the parent directory"

    def test_recover_journal_fsyncs_the_directory(self, tmp_path, monkeypatch):
        path, _, raw = _journal(tmp_path)
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x04
        path.write_bytes(bytes(flipped))
        synced_dirs = []
        real_fsync = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        report = recover_journal(path)
        assert report.salvaged_bytes > 0
        assert synced_dirs, "salvage must fsync the parent directory"
