"""Journal damage detection and self-healing recovery.

A clean crash can only tear the trailing line.  Real storage fails in
richer ways — interior bit-flips, lines dropped or duplicated by a
misdirected write, a header eaten by ``ENOSPC`` — and the version-8
framing (per-record CRC32 + monotonic sequence number) makes every one
of them *detectable*.  This module turns detection into a typed
verdict and a safe salvage:

:func:`verify_journal`
    Read-only scan producing a :class:`JournalDamageReport`: the
    journal's longest verified prefix (every record parsed, CRC-true
    and sequence-contiguous), plus one :class:`JournalDamage` entry per
    problem found.  It is the one journal scanner, defined next to the
    writer in :mod:`repro.core.serialization` and re-exported here:
    :func:`~repro.core.serialization.read_journal` is its strict view,
    and every repair, trim and salvage cuts at offsets it returned.

:func:`recover_journal`
    Verify, then salvage: the file is truncated to the longest
    verified prefix (fsynced, directory entry too), and when the
    damage is anything beyond a plain torn tail the *original* bytes
    are preserved first in a ``<journal>.damaged`` sidecar — recovery
    never destroys evidence.  Deterministic replay then regrows the
    journal byte-identically from the last checkpoint in the prefix,
    exactly as with a torn tail.

:func:`recover_for_resume`
    What every resume runs: salvage, then cut back to the last
    boundary record, and hand the records over — one read of the file.

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

from pathlib import Path

from ..core.serialization import (
    JournalDamage,
    JournalDamageReport,
    _fsync_directory,
    _verify_journal_bytes,
    verify_journal,
)
from ..obs import OBS

__all__ = [
    "JournalDamage",
    "JournalDamageReport",
    "verify_journal",
    "recover_journal",
    "recover_for_resume",
]

#: Sidecar suffix appended to the journal's file name.
DAMAGED_SIDECAR_SUFFIX = ".damaged"


def recover_journal(path: str | Path) -> JournalDamageReport:
    """Verify, then salvage the longest verified prefix in place.

    Framed journals are truncated to the verified prefix (file and
    directory entry fsynced); when the damage is anything beyond a
    plain torn tail, the original bytes are first preserved verbatim
    in a ``<journal>.damaged`` sidecar.  Legacy journals get
    trim-tail-only treatment, as
    :func:`~repro.core.serialization.repair_journal` gives them; their
    interior damage is reported but the file is not cut.  Damage and
    salvage counts are mirrored into OBS counters when observability is
    on.  Idempotent: a second call on the recovered file reports clean
    (or, for legacy interior damage, the same verdict) and changes
    nothing.  The sidecar is written from the bytes the scan read, so
    a salvage reads the journal once.
    """
    path = Path(path)
    raw = path.read_bytes()
    report = _verify_journal_bytes(path, raw)
    if report.framed and not report.tail_only:
        sidecar = path.with_name(path.name + DAMAGED_SIDECAR_SUFFIX)
        sidecar.write_bytes(raw)
        _fsync_directory(path.parent)
        report.sidecar = sidecar
    if not report.clean:
        report.salvaged_bytes = (
            report.cut(report.prefix_bytes, report.verified_records)
            if report.framed
            # Unframed: nothing vouches for interior lines, so only
            # the torn tail may be cut (the legacy crash contract).
            else report.cut_torn_tail()
        )
    _publish(report)
    return report


def recover_for_resume(
    path: str | Path, boundary: tuple[str, ...]
) -> list[dict]:
    """Salvage a journal and cut it back to its last boundary record,
    from one read; returns its verified records.

    Resume replays from the last record whose kind is in ``boundary``
    and re-journals everything after it byte-for-byte, so those lines
    are cut first (salvage first: :func:`recover_journal`).  A legacy
    journal with interior damage raises
    :class:`~repro.core.serialization.SerializationError` and is left
    as found.
    """
    report = recover_journal(path)
    records = report.strict_records()
    report.cut_after_last(boundary)
    return records


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
