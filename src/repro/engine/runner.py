""":func:`run_parallel_hc_session`: :func:`~repro.simulation.session.run_hc_session`
with a round's answers collected on several threads.

On the plain path a :class:`~repro.engine.sources.KeyedExpertPanel`
source is wrapped in a
:class:`~repro.engine.sources.ConcurrentAnswerSource`, which answers
each round bit-identically to one serial call, so the returned result
(history, beliefs, labels — and on the resilient path, the journal) is
byte-for-byte the serial run's, for any ``jobs``.  A killed journaled
campaign resumes through
:meth:`~repro.simulation.resilient.ResilientCheckingSession.resume`.
"""

from __future__ import annotations

from ..core.hc import RunResult
from ..datasets.schema import CrowdLabelingDataset
from ..simulation.session import SessionConfig, run_hc_session
from .sources import ConcurrentAnswerSource, KeyedExpertPanel


def run_parallel_hc_session(
    dataset: CrowdLabelingDataset,
    config: SessionConfig | None = None,
    selector=None,
    aggregator=None,
    answer_source=None,
    *,
    jobs: int = 1,
    inline: bool | None = None,
) -> RunResult:
    """:func:`~repro.simulation.session.run_hc_session` with ``jobs``
    collection threads.

    The positional parameters match ``run_hc_session`` so call sites
    switch by adding ``jobs=N``.  Only a plain (non-resilient) campaign
    over a :class:`~repro.engine.sources.KeyedExpertPanel` collects on
    threads: a resilient session checkpoints its source's state, which
    the concurrent wrapper does not carry, so any other campaign runs as
    with ``jobs=1``.  ``inline`` selects nothing; it is accepted for
    callers written against the removed process-shard engine (the
    benchmark's ``durable`` workload passes ``inline=True``).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    config = config or SessionConfig()
    if (
        jobs > 1
        and not config.resilient
        and isinstance(answer_source, KeyedExpertPanel)
    ):
        answer_source = ConcurrentAnswerSource(answer_source, jobs)
    return run_hc_session(dataset, config, selector, aggregator, answer_source)
