"""How a resume reads its journal: once, and with typed errors.

Every runtime rebuilds Algorithm 3's state (belief, spent budget,
pending queries) from the last journaled boundary record.  A resume
salvages the journal, cuts it back to that record and takes its
records from one scan — and leaves the append cache primed, so even
the first append after the cut reads nothing.  These tests count
whole-file reads (``Path.read_bytes``) of each journal from a cold
append cache, and check that what a resume reads fails as a typed
:class:`~repro.core.serialization.SerializationError` naming the field
when malformed: the header fields (``budget_total``, ``k``) and the
members of a v9 checkpoint line that
:func:`~repro.core.serialization.fold_checkpoints` folds.
"""

from __future__ import annotations

import base64
import dataclasses
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.selection import LazyGreedySelector
from repro.core.serialization import (
    SerializationError,
    fold_checkpoints,
    frame_journal_line,
    invalidate_journal_cache,
    read_journal,
)
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import run_parallel_hc_session
from repro.service import CampaignService, CampaignSpec
from repro.service.errors import CampaignQuarantinedError
from repro.simulation import (
    FaultModel,
    ResilientCheckingSession,
    SessionConfig,
    run_hc_session,
)
from repro.simulation.session import campaign_answer_source
from repro.storage.integrity import recover_journal
from repro.stream import (
    StreamChaos,
    StreamingCampaign,
    StreamSpec,
    generate_event_stream,
    make_arrivals,
)


@pytest.fixture(autouse=True)
def _no_env_stream_chaos(monkeypatch):
    """Byte-identity and read counts are pinned on a chaos-free run."""
    monkeypatch.delenv("REPRO_STREAM_CHAOS", raising=False)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        num_groups=4,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=41,
    )


@pytest.fixture(scope="module")
def stream_dataset():
    return make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )


def _stream_spec(**overrides) -> StreamSpec:
    base = dict(
        rate=50.0,
        votes_per_fact=3,
        group_size=3,
        target_votes=2,
        churn=0.1,
        seed=7,
        chaos=StreamChaos(reorder=0.15, duplicate=0.1, stall=0.05, seed=3),
    )
    base.update(overrides)
    return StreamSpec(**base)


def _events(dataset, spec: StreamSpec):
    return generate_event_stream(
        dataset,
        theta=spec.theta,
        votes_per_fact=spec.votes_per_fact,
        arrivals=make_arrivals(spec.arrival, spec.rate),
        seed=spec.seed,
        churn_rate=spec.churn,
        window=spec.window,
    )


def _count_reads(monkeypatch) -> Counter:
    """Count ``Path.read_bytes`` calls per absolute path from now on."""
    counts: Counter = Counter()
    real = Path.read_bytes

    def counting(self):
        counts[os.path.abspath(self)] += 1
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    return counts


def _reads(counts: Counter, path) -> int:
    return counts[os.path.abspath(path)]


def _tear(path: Path, fraction: float) -> None:
    """Leave the journal as a kill mid-append at ``fraction`` of it."""
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * fraction)])


class TestOneReadPerResume:
    def test_session_resume(self, dataset, tmp_path, monkeypatch):
        config = SessionConfig(
            budget=16.0,
            k=2,
            seed=3,
            faults=FaultModel(no_show=0.2, timeout=0.2, seed=5),
        )
        reference = tmp_path / "ref.jsonl"
        run_hc_session(
            dataset, dataclasses.replace(config, journal_path=reference)
        )
        path = tmp_path / "run.jsonl"
        path.write_bytes(reference.read_bytes())
        _tear(path, 0.6)
        invalidate_journal_cache(path)
        counts = _count_reads(monkeypatch)
        session = ResilientCheckingSession.resume(
            path, selector=LazyGreedySelector()
        )
        session.run(campaign_answer_source(dataset, config))
        assert _reads(counts, path) == 1
        monkeypatch.undo()
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "phase, overrides, max_events",
        [
            # a group larger than the early stream and an unreachable
            # straggler horizon keep the campaign in its bootstrap
            (
                "bootstrap",
                dict(group_size=12, straggler_timeout=1e9, chaos=None),
                4,
            ),
            ("checkpointed", {}, 25),
        ],
    )
    def test_stream_resume(
        self, stream_dataset, tmp_path, monkeypatch, phase, overrides,
        max_events,
    ):
        spec = _stream_spec(**overrides)
        events = _events(stream_dataset, spec)
        experts = stream_dataset.split_crowd(spec.theta)[0]
        path = tmp_path / f"{phase}.jsonl"
        StreamingCampaign(
            events, experts, 40.0, spec=spec, journal_path=path
        ).run(max_events=max_events)
        kinds = {record["kind"] for record in read_journal(path)}
        assert ("checkpoint" in kinds) == (phase == "checkpointed")
        _tear(path, 0.97)
        invalidate_journal_cache(path)
        counts = _count_reads(monkeypatch)
        campaign = StreamingCampaign.resume(path, events, experts=experts)
        campaign.run()
        assert campaign.finished
        assert _reads(counts, path) == 1

    def test_salvage(self, dataset, tmp_path, monkeypatch):
        """The ``.damaged`` sidecar is written from the bytes the scan
        read, not from a second read."""
        path = tmp_path / "run.jsonl"
        run_hc_session(
            dataset,
            SessionConfig(budget=16.0, k=2, seed=3, journal_path=path),
        )
        _damage(path, 1.0, line=3)
        damaged = path.read_bytes()
        invalidate_journal_cache(path)
        counts = _count_reads(monkeypatch)
        report = recover_journal(path)
        assert _reads(counts, path) == 1
        monkeypatch.undo()
        assert report.salvaged_bytes > 0
        assert report.sidecar.read_bytes() == damaged

    def test_parallel_resume(self, dataset, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        config = SessionConfig(budget=16.0, k=2, seed=3, journal_path=path)
        run_parallel_hc_session(dataset, config, jobs=2)
        _tear(path, 0.6)
        invalidate_journal_cache(path)
        counts = _count_reads(monkeypatch)
        session = ResilientCheckingSession.resume(path)
        session.run(campaign_answer_source(dataset, config))
        assert _reads(counts, path) == 1

    def test_service_recover_and_reattach(
        self, dataset, stream_dataset, tmp_path, monkeypatch
    ):
        root = tmp_path / "svc"
        specs = [
            CampaignSpec(
                tenant="acme",
                name="batch",
                dataset=dataset,
                config=SessionConfig(budget=20.0, k=2, seed=0),
            ),
            CampaignSpec(
                tenant="acme",
                name="live",
                dataset=stream_dataset,
                config=SessionConfig(budget=30.0, k=1, seed=0),
                stream=_stream_spec(),
            ),
        ]
        service = CampaignService(100.0, journal_root=root)
        for spec in specs:
            service.submit(spec)
        for _ in range(6):
            service.step()
        service.close()
        journals = [root / "acme" / "batch.jsonl", root / "acme" / "live.jsonl"]
        for path in journals:
            invalidate_journal_cache(path)
        counts = _count_reads(monkeypatch)
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            assert len(report.reattached) == 2
            for _ in range(4):
                service.step()
        # once each for the sweep (whose scan the attach takes) and the
        # resume
        assert [_reads(counts, path) for path in journals] == [2, 2]


def _rewrite_header(path: Path, name: str, value, *, tenant=False) -> None:
    """Re-frame ``path`` with the header's ``name`` field set to
    ``value`` (deleted for ``...``), optionally adding a tenant record."""
    records = read_journal(path)
    header = dict(records[0])
    if value is ...:
        del header[name]
    else:
        header[name] = value
    records[0] = header
    if tenant:
        records.insert(
            1,
            {"kind": "tenant", "tenant": "acme", "name": "job",
             "priority": 0, "weight": 1.0},
        )
    path.write_bytes(b"".join(
        (frame_journal_line(record, seq) + "\n").encode("utf-8")
        for seq, record in enumerate(records)
    ))


def _resume_stream(path: Path, *, stream_dataset, **_):
    spec = _stream_spec()
    StreamingCampaign.resume(path, _events(stream_dataset, spec))


def _attach_via_cli(path: Path, *, data_dir, **_):
    main([
        "session", "--data", str(data_dir), "--group-size", "4",
        "--theta", "0.85", "--attach", str(path),
    ])


@pytest.fixture
def journals(dataset, stream_dataset, tmp_path):
    batch = tmp_path / "batch.jsonl"
    run_parallel_hc_session(
        dataset,
        SessionConfig(budget=8.0, k=2, seed=3, journal_path=batch),
        jobs=2,
    )
    spec = _stream_spec()
    stream = tmp_path / "stream.jsonl"
    StreamingCampaign(
        _events(stream_dataset, spec),
        stream_dataset.split_crowd(spec.theta)[0],
        40.0,
        spec=spec,
        journal_path=stream,
    ).run(max_events=25)
    data_dir = tmp_path / "data"
    assert main([
        "generate", "--out", str(data_dir), "--groups", "6",
        "--group-size", "4", "--answers", "5", "--seed", "1",
    ]) == 0
    cli = tmp_path / "cli.jsonl"
    assert main([
        "session", "--data", str(data_dir), "--budget", "10",
        "--group-size", "4", "--theta", "0.85",
        "--journal", str(cli), "--seed", "1",
    ]) == 0
    return {"batch": batch, "stream": stream, "cli": cli,
            "data_dir": data_dir}


class TestHeaderFields:
    @pytest.mark.parametrize("value", [..., None, "x"],
                             ids=["missing", "null", "string"])
    @pytest.mark.parametrize(
        "reader, journal",
        [
            (_resume_stream, "stream"),
            (_attach_via_cli, "cli"),
        ],
        ids=["StreamingCampaign.resume", "session --attach"],
    )
    def test_malformed_budget_total_is_a_typed_error(
        self, journals, stream_dataset, reader, journal, value
    ):
        path = journals[journal]
        _rewrite_header(
            path, "budget_total", value, tenant=journal == "cli"
        )
        with pytest.raises(SerializationError, match="budget_total"):
            reader(
                path,
                stream_dataset=stream_dataset,
                data_dir=journals["data_dir"],
            )


def _edit_last_checkpoint(path: Path, member: str, value) -> None:
    """Re-frame ``path`` with ``member`` of its last checkpoint's
    session set to ``value`` (a callable gets the folded group count)."""
    records = [dict(record) for record in read_journal(path)]
    last = max(
        index for index, record in enumerate(records)
        if record["kind"] == "checkpoint"
    )
    if callable(value):
        value = value(len(fold_checkpoints(records)["belief"]["groups"]))
    records[last]["session"] = dict(
        records[last]["session"], **{member: value}
    )
    path.write_bytes(b"".join(
        (frame_journal_line(record, seq) + "\n").encode("utf-8")
        for seq, record in enumerate(records)
    ))


def _resume_session(path: Path, **_):
    ResilientCheckingSession.resume(path)


def _resume_session_via_cli(path: Path, *, data_dir, **_):
    main([
        "session", "--data", str(data_dir), "--group-size", "4",
        "--theta", "0.85", "--resume", str(path),
    ])


_EIGHT_BYTES = base64.b64encode(bytes(8)).decode()


class TestCheckpointMembers:
    """A malformed member of a v9 checkpoint line fails every resume
    with a typed error naming the field, not a raw ``KeyError``,
    ``IndexError`` or ``binascii.Error``."""

    @pytest.mark.parametrize(
        "member, value, field",
        [
            ("belief", lambda groups: {str(groups + 1): {}}, "belief"),
            ("belief", lambda groups: {"x": {}}, "belief"),
            ("belief", lambda groups: {str(groups): {
                "probabilities": _EIGHT_BYTES}}, "belief"),
            ("belief", lambda groups: {"0": "abc"}, "belief"),
            ("belief", [], "belief"),
            ("belief", {"0": {"probabilities": "@@@@"}}, "probabilities"),
            ("belief", {"0": {"probabilities": _EIGHT_BYTES}},
             "probabilities"),
            ("history", "x", "history"),
            ("history", [1], "history"),
            ("ground_truth", [True], "ground_truth"),
        ],
        ids=["unknown-group", "non-index-key", "new-group-without-facts",
             "group-not-object", "belief-not-mapping", "bad-base64",
             "wrong-length-base64", "history-not-list",
             "history-not-records", "truth-not-mapping"],
    )
    @pytest.mark.parametrize(
        "reader, journal",
        [
            (_resume_session, "cli"),
            (_resume_session_via_cli, "cli"),
            (_resume_session, "batch"),
            (_resume_stream, "stream"),
            (_attach_via_cli, "cli"),
        ],
        ids=["ResilientCheckingSession.resume", "session --resume",
             "resume of a jobs=2 journal", "StreamingCampaign.resume",
             "session --attach"],
    )
    def test_malformed_v9_member_is_a_typed_error(
        self, journals, stream_dataset, reader, journal, member, value,
        field,
    ):
        path = journals[journal]
        attach = reader is _attach_via_cli
        if attach:
            _rewrite_header(path, "budget_total", 10.0, tenant=True)
        _edit_last_checkpoint(path, member, value)
        # The service quarantines the campaign with the typed error as
        # the reason, rather than dying on it.
        with pytest.raises(
            CampaignQuarantinedError if attach else SerializationError,
            match=f"malformed (checkpoint )?field {field!r}",
        ):
            reader(
                path,
                stream_dataset=stream_dataset,
                data_dir=journals["data_dir"],
            )


def _damage(path: Path, fraction: float, line: int) -> None:
    """Keep ``fraction`` of the journal's lines, then flip one bit in a
    digit of ``line`` (1-indexed): a kill plus an interior bit-flip that
    still parses, which only the line's CRC catches."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines = lines[: int(len(lines) * fraction)]
    damaged = bytearray(lines[line - 1])
    digit = next(
        index for index in range(20, len(damaged))
        if chr(damaged[index]).isdigit()
    )
    damaged[digit] ^= 1
    lines[line - 1] = bytes(damaged)
    path.write_bytes(b"".join(lines))


class TestCliSalvage:
    """The CLI's resume and attach read the journal's verified prefix
    and leave the salvage to the runtime, as the library resume does,
    instead of refusing interior damage the journal's CRCs locate."""

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "data"
        assert main([
            "generate", "--out", str(path), "--groups", "6",
            "--group-size", "4", "--answers", "5", "--seed", "1",
        ]) == 0
        return path

    def test_stream_resume_salvages_an_interior_bit_flip(
        self, data_dir, tmp_path
    ):
        flags = ["--data", str(data_dir), "--group-size", "4",
                 "--theta", "0.85", "--seed", "1"]
        reference = tmp_path / "reference.jsonl"
        assert main(
            ["stream", *flags, "--budget", "20", "--journal", str(reference)]
        ) == 0
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(reference.read_bytes())
        _damage(path, 0.6, line=6)
        assert main(["stream", *flags, "--resume", str(path)]) == 0
        assert path.with_name(path.name + ".damaged").exists()
        assert path.read_bytes() == reference.read_bytes()

    def test_session_attach_salvages_an_interior_bit_flip(
        self, data_dir, tmp_path
    ):
        flags = ["--data", str(data_dir), "--group-size", "4",
                 "--theta", "0.85", "--seed", "1"]
        root = tmp_path / "root"
        assert main([
            "serve", *flags, "--journal-root", str(root),
            "--campaigns", "1", "--budget", "20",
        ]) == 0
        reference = root / "tenant-0" / "campaign-0.jsonl"
        path = tmp_path / "attach.jsonl"
        path.write_bytes(reference.read_bytes())
        _damage(path, 0.6, line=12)
        assert main(["session", *flags, "--attach", str(path)]) == 0
        assert path.with_name(path.name + ".damaged").exists()
        assert path.read_bytes() == reference.read_bytes()
