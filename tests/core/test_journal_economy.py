"""A v9 journal's checkpoint lines cost O(groups changed).

Each checking round queries at most ``k`` facts and Lemma 3 updates only
their groups, so a checkpoint line carries those groups, the round's
record and nothing re-encoded.  A journaled campaign of more than 50
rounds must show it:

* every checkpoint line after the first stays under one fixed byte
  bound, whatever the round index;
* each round record and each ground-truth entry is encoded in exactly
  one line;
* a ``k = 1`` round-end line carries exactly one group.
"""

from __future__ import annotations

import json

from repro.core import BeliefState, Crowd, FactoredBelief, FactSet
from repro.core.serialization import strip_frame
from repro.simulation import ResilientCheckingSession, SimulatedExpertPanel

#: Bytes a checkpoint line after the first may take: one 3-fact group,
#: one round record, the panel, the RNG state and the scalars.  A line
#: that re-encoded the 40-group belief or the history would be several
#: times larger.
LINE_BOUND = 2048


def test_checkpoint_lines_stay_small_and_encode_everything_once(tmp_path):
    groups = [
        BeliefState.from_marginals(
            FactSet.from_ids([3 * g, 3 * g + 1, 3 * g + 2]), [0.6, 0.45, 0.7]
        )
        for g in range(40)
    ]
    truth = {fact_id: fact_id % 4 != 0 for fact_id in range(120)}
    path = tmp_path / "run.jsonl"
    session = ResilientCheckingSession(
        FactoredBelief(groups), Crowd.from_accuracies([0.8, 0.9]), 130.0,
        k=1, ground_truth=truth, journal_path=path,
    )
    session.run(SimulatedExpertPanel(truth, rng=7))
    rounds = len(session.history) - 1
    assert rounds >= 50

    lines = [line for line in path.read_bytes().splitlines()]
    checkpoints = [
        (len(line), strip_frame(json.loads(line))["session"])
        for line in lines
        if b'"kind":"checkpoint"' in line
    ]
    (_, first), later = checkpoints[0], checkpoints[1:]
    assert len(first["belief"]) == len(groups)
    assert max(size for size, _ in later) < LINE_BOUND

    recorded = [
        record["round_index"]
        for _, session_member in checkpoints
        for record in session_member["history"]
    ]
    assert recorded == [record.round_index for record in session.history]
    written_truth = [
        key
        for _, session_member in checkpoints
        for key in session_member["ground_truth"]
    ]
    assert sorted(written_truth, key=int) == [str(key) for key in truth]

    round_ends = [
        session_member for _, session_member in later
        if session_member["history"]
    ]
    assert len(round_ends) == rounds
    assert all(len(member["belief"]) == 1 for member in round_ends)
