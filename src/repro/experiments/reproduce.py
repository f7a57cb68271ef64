"""One-command reproduction driver: regenerate every table and figure.

Usage::

    python -m repro.experiments.reproduce --scale paper --out results/
    python -m repro.experiments.reproduce --scale small        # quick run
    python -m repro.experiments.reproduce --only figure2 table3
    python -m repro.experiments.reproduce --scale small --jobs 4

Writes one JSON and one ``.txt`` report per experiment into the output
directory and prints the text reports as it goes.  ``--jobs N`` fans
the selected experiments across ``N`` worker processes — experiments
are mutually independent (each seeds its own RNGs and writes its own
files), so the outputs are identical to a serial run's.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

from .config import get_scale
from .figures import (
    run_ablation_cost_model,
    run_ablation_miscalibration,
    run_ablation_panel_size,
    run_ablation_selectors,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)
from .reporting import format_experiment, format_table3, save_json
from .table3 import run_table3

#: Experiment registry: name -> (runner taking a scale, is_table3 flag).
FIGURE_RUNNERS: dict[str, Callable] = {
    "figure2": run_figure2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure7": run_figure7,
    "ablation_selectors": run_ablation_selectors,
    "ablation_cost_model": run_ablation_cost_model,
    "ablation_miscalibration": run_ablation_miscalibration,
    "ablation_panel_size": run_ablation_panel_size,
}

#: Experiments with bespoke runners (not in :data:`FIGURE_RUNNERS`).
EXTRA_EXPERIMENTS = ("table3", "sweep_theta_k", "figure2_replicated")


def available_experiments() -> list[str]:
    """Every name ``run_all(only=...)`` accepts, in default run order."""
    return [*FIGURE_RUNNERS, *EXTRA_EXPERIMENTS]


def _run_one(
    name: str,
    scale_name: str,
    out_dir: str,
    table3_facts: int,
    table3_max_k: int,
    table3_timeout: float,
) -> tuple[str, str, float]:
    """Run one experiment, write its artifacts, return (name, report,
    seconds).  Module-level and plain-argument so ``--jobs`` can run it
    in a spawned worker process."""
    scale = get_scale(scale_name)
    out_path = Path(out_dir)
    start = time.perf_counter()
    if name == "table3":
        result = run_table3(
            k_values=tuple(range(1, table3_max_k + 1)),
            num_facts=table3_facts,
            opt_timeout_seconds=table3_timeout,
        )
        report = format_table3(result)
        (out_path / "table3.json").write_text(
            json.dumps(result.to_dict(), indent=2)
        )
    elif name == "sweep_theta_k":
        from .sweeps import format_sweep, run_theta_k_sweep

        grid = run_theta_k_sweep(scale)
        report = (
            format_sweep(grid, "accuracy")
            + "\n\n"
            + format_sweep(grid, "quality")
        )
        (out_path / "sweep_theta_k.json").write_text(
            json.dumps(grid.to_dict(), indent=2)
        )
    elif name == "figure2_replicated":
        from .reporting import format_replicated
        from .sweeps import run_figure2_replicated

        series = run_figure2_replicated(scale)
        report = format_replicated([series])
        (out_path / "figure2_replicated.json").write_text(
            json.dumps(series.to_dict(), indent=2)
        )
    else:
        result = FIGURE_RUNNERS[name](scale)
        report = format_experiment(result)
        save_json(result, out_path / f"{name}.json")
    elapsed = time.perf_counter() - start
    (out_path / f"{name}.txt").write_text(report + "\n")
    return name, report, elapsed


def run_all(
    scale_name: str = "paper",
    out_dir: str | Path = "results",
    only: list[str] | None = None,
    table3_facts: int = 20,
    table3_max_k: int = 10,
    table3_timeout: float = 60.0,
    jobs: int = 1,
) -> dict[str, float]:
    """Run the selected experiments; returns wall-clock seconds each took.

    Unknown ``only`` names fail fast — before any experiment runs — so
    a typo cannot cost an hour of compute first.  ``jobs > 1`` runs the
    selection on a spawn-safe process pool; reports still print in
    selection order.
    """
    scale = get_scale(scale_name)
    del scale  # validated here, rebuilt per worker
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    available = available_experiments()
    selected = list(only) if only else available
    unknown = [name for name in selected if name not in available]
    if unknown:
        raise ValueError(
            f"unknown experiment {unknown[0]!r}; "
            f"available: {', '.join(available)}"
        )
    timings: dict[str, float] = {}

    def _report(name: str, report: str, elapsed: float) -> None:
        timings[name] = elapsed
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(report)
        print()

    extra = (table3_facts, table3_max_k, table3_timeout)
    if jobs > 1 and len(selected) > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(selected)), mp_context=context
        ) as pool:
            futures = [
                pool.submit(_run_one, name, scale_name, str(out_dir), *extra)
                for name in selected
            ]
            for future in futures:
                _report(*future.result())
    else:
        for name in selected:
            _report(*_run_one(name, scale_name, str(out_dir), *extra))

    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2))
    return timings


def main(argv: list[str] | None = None) -> None:
    from ..cli import _positive_int

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="paper",
                        choices=("paper", "small"))
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiments to run")
    parser.add_argument("--table3-facts", type=int, default=20)
    parser.add_argument("--table3-max-k", type=int, default=10)
    parser.add_argument("--table3-timeout", type=float, default=60.0)
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes to fan experiments across")
    args = parser.parse_args(argv)
    run_all(
        scale_name=args.scale,
        out_dir=args.out,
        only=args.only,
        table3_facts=args.table3_facts,
        table3_max_k=args.table3_max_k,
        table3_timeout=args.table3_timeout,
        jobs=args.jobs,
    )


if __name__ == "__main__":
    main()
