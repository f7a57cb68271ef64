"""Shared writer for the ``BENCH_*.json`` artifacts.

Every benchmark used to end with the same four hand-rolled lines
(dump, write to repo root, write to ``benchmarks/results/``); worse,
none of them recorded *where* the numbers came from, so artifacts
pulled from CI could not be compared across commits or machines.
:func:`write_bench` centralizes the tail and stamps each payload with
an ``environment`` block — git SHA, Python version, CPU count, and a
schema version for the block itself — so a downloaded artifact is
self-describing.  The root copy holds the committed full-scale
numbers, so a smoke run writes only under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent

#: Version of the ``environment`` stamp block (not of each benchmark's
#: own result shape); bump when its keys change.
ENVIRONMENT_SCHEMA = 1


def bench_environment() -> dict:
    """The provenance stamp attached to every benchmark payload."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "schema_version": ENVIRONMENT_SCHEMA,
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def write_bench(name: str, result: dict, results_dir) -> str:
    """Stamp ``result`` and write ``BENCH_<name>.json`` to
    ``results_dir`` (the CI artifact path) and, unless
    ``result["scale"]["smoke"]`` is set, to the repo root; returns the
    serialized payload for the benchmark's own printing."""
    stamped = dict(result)
    stamped["environment"] = bench_environment()
    payload = json.dumps(stamped, indent=2)
    (Path(results_dir) / f"BENCH_{name}.json").write_text(payload)
    if not result["scale"]["smoke"]:
        (REPO_ROOT / f"BENCH_{name}.json").write_text(payload)
    return payload
