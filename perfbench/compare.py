"""Compare two sets of benchmark runs, one row per workload and metric.

Each set is a JSONL file of result lines written with ``--out``; the
untraced lines are used.  Runs pair up in file order within a workload
(run the two sides alternately).  The verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more
  than the base's own quartile spread;
* ``unresolved``: the base's quartile spread is wider than the metric's
  bound, unless every change run beats every base run;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``no worse``: otherwise.

Exits with 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace", 0) == 0 and record["correct"]:
            runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(quartile: tuple[float, float, float]) -> str:
    return f"{quartile[1]:.6g} [{quartile[0]:.6g}, {quartile[2]:.6g}]"


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = wins / len(pairs)
    b1, b2, b3 = quartiles(base)
    _c1, c2, _c3 = quartiles(change)
    scale = abs(b2) or 1.0
    spread = (b3 - b1) / scale
    worse_by = sign * (b2 - c2) / scale
    every_better = (
        min(change) > max(base) if sign > 0 else max(change) < min(base)
    )
    if share >= 0.9 and sign * (c2 - b2) > b3 - b1:
        return "improved", share
    if spread > bound and not every_better:
        return "unresolved", share
    if worse_by > bound:
        return "worse", share
    return "no worse", share


#: The manifest beside this benchmark's directory.
MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(base_path: Path, change_path: Path) -> int:
    metrics = json.loads(MANIFEST.read_text())["end_to_end"]
    base, change = load(base_path), load(change_path)
    print(f"{'workload':<9} {'metric':<18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    worse = False
    for workload in sorted(set(base) & set(change)):
        for metric in metrics:
            name = metric["name"]
            b = [run[name]["value"] for run in base[workload]]
            c = [run[name]["value"] for run in change[workload]]
            result, share = verdict(b, c, metric["better"], metric["bound"])
            worse |= result == "worse"
            print(f"{workload:<9} {name:<18} {cell(quartiles(b)):>34} "
                  f"{cell(quartiles(c)):>34} {share:>5.0%}  {result}")
    return 1 if worse else 0
