"""Journal damage detection and self-healing recovery.

:func:`repro.core.serialization.repair_journal` only handles the one
damage class a clean crash can cause: a torn trailing line.  Real
storage fails in richer ways — interior bit-flips, lines dropped or
duplicated by a misdirected write, a header eaten by ``ENOSPC`` —
and the version-8 framing (per-record CRC32 + monotonic sequence
number) makes every one of them *detectable*.  This module turns
detection into a typed verdict and a safe salvage:

:func:`verify_journal`
    Read-only scan producing a :class:`JournalDamageReport`: the
    journal's longest verified prefix (every record parsed, CRC-true
    and sequence-contiguous), plus one :class:`JournalDamage` entry per
    problem found.

:func:`recover_journal`
    Verify, then salvage: the file is truncated to the longest
    verified prefix (fsynced, directory entry too), and when the
    damage is anything beyond a plain torn tail the *original* bytes
    are preserved first in a ``<journal>.damaged`` sidecar — recovery
    never destroys evidence.  Deterministic replay then regrows the
    journal byte-identically from the last checkpoint in the prefix,
    exactly as with a torn tail.

Legacy (v1–v7, unframed) journals have no integrity information, so
recovery deliberately stays trim-tail-only: interior damage is
*reported* but the file is left untouched — truncating an unframed
journal at an arbitrary interior line could silently discard good
records, which is worse than refusing.

Damage kinds
------------

``torn_tail``
    The final content line is unterminated or unparseable — the
    classic crash-mid-append signature.  Salvage needs no sidecar.
``parse_error``
    An interior line is not valid JSON (bit-flip in a structural
    character).
``crc_mismatch``
    A framed line parses but its CRC does not cover its bytes
    (bit-flip in a value, even one that parses to the same value), or
    its ``"_crc"`` is not the final 8 lowercase hex digits.
``seq_gap`` / ``seq_duplicate``
    A framed line's sequence number skips ahead (a dropped line) or
    repeats (a duplicated line).
``bad_record`` / ``bad_header``
    A line is not a ``kind``-carrying object, or the journal does not
    open with a supported header.
``unverified_suffix``
    Lines after the first damaged line.  They may well parse, but
    nothing vouches for them — the verified prefix ends at the first
    problem, and replay regenerates everything after it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..core.serialization import (
    SUPPORTED_VERSIONS,
    _fsync_directory,
    _is_int,
    invalidate_journal_cache,
    repair_journal,
    strip_frame,
    verify_framed_record,
)
from ..obs import OBS

__all__ = [
    "JournalDamage",
    "JournalDamageReport",
    "verify_journal",
    "recover_journal",
]

#: Sidecar suffix appended to the journal's file name.
DAMAGED_SIDECAR_SUFFIX = ".damaged"


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
    """The verdict of one :func:`verify_journal` / :func:`recover_journal`.

    ``records`` holds the verified prefix's records with framing
    stripped — what a :func:`~repro.core.serialization.read_journal`
    of the recovered file returns — so callers that verify-then-read
    need not touch the file twice.
    """

    path: Path
    version: int | None
    framed: bool
    total_lines: int
    verified_records: int
    prefix_bytes: int
    damage: tuple[JournalDamage, ...]
    records: list = field(default_factory=list, repr=False)
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
    ``unverified_suffix`` entry.
    """
    path = Path(path)
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    damage: list[JournalDamage] = []
    records: list[dict] = []
    version: int | None = None
    framed = False
    expected_seq = 0
    prefix_bytes = 0
    offset = 0
    content_lines = [
        index for index, line in enumerate(lines) if line.strip()
    ]
    last_content = content_lines[-1] if content_lines else -1
    for index, line in enumerate(lines):
        line_no = index + 1
        offset += len(line)
        if not line.strip():
            # Blank separators carry no records; fold them into the
            # prefix so salvage does not truncate harmless whitespace.
            prefix_bytes = offset
            continue
        is_final = index == last_content and offset == len(raw)
        problem: JournalDamage | None = None
        record = None
        if not line.endswith(b"\n"):
            problem = JournalDamage(
                line_no, "torn_tail", "unterminated final line"
            )
        else:
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                # A flipped high bit makes the line invalid UTF-8, not
                # just invalid JSON — same damage class either way.
                kind = "torn_tail" if is_final else "parse_error"
                problem = JournalDamage(line_no, kind, str(error))
        if problem is None and (
            not isinstance(record, dict) or "kind" not in record
        ):
            problem = JournalDamage(
                line_no, "bad_record", "not a 'kind' record object"
            )
        if problem is None and not records:
            # Framing detection is redundant on purpose: a supported
            # v8+ version declaration OR the presence of either frame
            # field (reserved keys no legacy record can carry).  A
            # single bit-flip can erase one signal but not both, so a
            # damaged header reads as damage rather than demoting the
            # journal to unverifiable legacy.
            framed = "_seq" in record or "_crc" in record
            if record.get("kind") != "header":
                problem = JournalDamage(
                    line_no, "bad_header", "journal does not start with "
                    "a header record"
                )
            else:
                head_version = record.get("version", 1)
                if (
                    not _is_int(head_version)
                    or head_version not in SUPPORTED_VERSIONS
                ):
                    problem = JournalDamage(
                        line_no,
                        "bad_header",
                        f"unsupported version {head_version!r}",
                    )
                else:
                    version = head_version
                    framed = framed or head_version >= 8
        if problem is None and framed:
            framing = verify_framed_record(line.rstrip(b"\r\n"), record)
            if framing is not None:
                problem = JournalDamage(line_no, "crc_mismatch", framing)
            else:
                seq = record["_seq"]
                if seq < expected_seq:
                    problem = JournalDamage(
                        line_no,
                        "seq_duplicate",
                        f"seq {seq} repeats (expected {expected_seq})",
                    )
                elif seq > expected_seq:
                    problem = JournalDamage(
                        line_no,
                        "seq_gap",
                        f"seq jumps to {seq} (expected {expected_seq})",
                    )
                else:
                    expected_seq += 1
        if problem is not None:
            damage.append(problem)
            trailing = [
                later for later in content_lines if later > index
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
            break
        records.append(strip_frame(record))
        prefix_bytes = offset
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
        total_lines=len(content_lines),
        verified_records=len(records),
        prefix_bytes=prefix_bytes,
        damage=tuple(damage),
        records=records,
    )


def recover_journal(path: str | Path) -> JournalDamageReport:
    """Verify, then salvage the longest verified prefix in place.

    Framed journals are truncated to the verified prefix (file and
    directory entry fsynced); when the damage is anything beyond a
    plain torn tail, the original bytes are first preserved verbatim
    in a ``<journal>.damaged`` sidecar.  Legacy journals get
    trim-tail-only treatment via
    :func:`~repro.core.serialization.repair_journal`; their interior
    damage is reported but the file is not cut.  Damage and salvage
    counts are mirrored into OBS counters when observability is on.
    Idempotent: a second call on the recovered file reports clean (or,
    for legacy interior damage, the same verdict) and changes nothing.
    """
    path = Path(path)
    report = verify_journal(path)
    if report.clean:
        _publish(report)
        return report
    original_size = path.stat().st_size
    if report.framed:
        if not report.tail_only:
            sidecar = path.with_name(path.name + DAMAGED_SIDECAR_SUFFIX)
            sidecar.write_bytes(path.read_bytes())
            _fsync_directory(path.parent)
            report.sidecar = sidecar
        if report.prefix_bytes < original_size:
            with path.open("r+b") as handle:
                handle.truncate(report.prefix_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            _fsync_directory(path.parent)
            invalidate_journal_cache(path)
            report.salvaged_bytes = original_size - report.prefix_bytes
    else:
        # Unframed: nothing vouches for interior lines, so only the
        # torn tail may be cut (the legacy crash contract).
        repair_journal(path)
        report.salvaged_bytes = original_size - path.stat().st_size
    _publish(report)
    return report


def _publish(report: JournalDamageReport) -> None:
    if not OBS.enabled:
        return
    damage_counter = OBS.registry.counter(
        "repro_journal_damage_total",
        "Journal damage findings by kind",
        labels=("kind",),
    )
    for entry in report.damage:
        damage_counter.labels(kind=entry.kind).inc()
    OBS.registry.counter(
        "repro_journal_records_verified_total",
        "Records in verified journal prefixes",
    ).labels().inc(report.verified_records)
    if report.salvaged_bytes:
        OBS.registry.counter(
            "repro_journal_recoveries_total",
            "Journal recoveries that removed damaged bytes",
        ).labels().inc()
        OBS.registry.counter(
            "repro_journal_bytes_dropped_total",
            "Bytes dropped by journal recovery",
        ).labels().inc(report.salvaged_bytes)
