"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 12 --trace 0

Run it from the repository root; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
A failed output check prints ``"correct": false`` and exits with 1.

    python3 perfbench/run.py --compare base.jsonl change.jsonl

compares two sets of runs saved with ``--out`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper", "wide", "durable")

#: Seed that later performance claims must also pass (never tuned on).
HELD_OUT_SEED = 9001

#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 3

#: Longest a set-up probe may run before it is killed.
PROBE_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_p50_ms": "ms",
    "round_p95_ms": "ms",
    "campaigns_per_min": "1/min",
    "events_per_s": "1/s",
    "recover_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "quality_bits": "bits",
}

PER_LAYER = {
    "repro.import_s": "s",
    "aggregation.init_s": "s",
    "core.selection.busy_s": "s",
    "core.selection.gain_evals": "count",
    "core.selection.pops_per_pick": "ratio",
    "core.update.busy_s": "s",
    "core.hc.record_s": "s",
    "core.entropy.first_step_gains_us": "us",
    "core.entropy.conditional_entropy_us": "us",
    "core.update.update_with_family_us": "us",
    "simulation.oracle.busy_s": "s",
    "service.submit_ms": "ms",
    "service.wait_p95_ms": "ms",
    "service.step_batch_busy_s": "s",
    "service.step_stream_busy_s": "s",
    "service.first_step_ms": "ms",
    "storage.journal_bytes_per_round": "B",
    "storage.append_ms": "ms",
    "storage.recover_sweep_s": "s",
    "storage.verify_s": "s",
    "engine.ledger.audit_ms": "ms",
    "service.strikes": "count",
    "service.rejected": "count",
    "service.shed": "count",
    "engine.supervisor.restarts": "count",
    "obs.phase.select_s": "s",
    "obs.phase.collect_s": "s",
    "obs.phase.update_s": "s",
    "obs.phase.commit_s": "s",
    "obs.phase.journal_s": "s",
    "obs.phase.admit_s": "s",
    "obs.phase.seal_s": "s",
    "engine.shards.dispatch_s": "s",
    "engine.shards.bytes": "B/round",
    "engine.shards.busy_skew": "ratio",
    "stream.admit_ratio": "ratio",
    "stream.forced_seals": "count",
    "stream.late_dropped": "count",
    "bench.trace_overhead": "ratio",
}

SCRATCH = Path(".perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the result line to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "CHANGE"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, generate the inputs
    (timed, then excluded), set up until the first round can start."""
    if workload == "durable":
        import durable
        imported = time.perf_counter()
        inputs = durable.generate(seed, len(durable.TENANTS),
                                  len(durable.TENANTS))
        gen_s = inputs.gen_s
        workdir = SCRATCH / f"probe-{os.getpid()}"
        loop = durable.Loop(inputs, workdir / "journals",
                            workdir / "archive", seed)
        try:
            durable.first_wave(loop)
            ready = time.perf_counter()
        finally:
            loop.service.close()
            durable.stop_resource_tracker()
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        import checking
        from repro.core.selection import LazyGreedySelector
        from repro.simulation.online import OnlineCheckingSession
        from repro.simulation.oracle import SimulatedExpertPanel

        imported = time.perf_counter()
        (instance,), gen_s = checking.generate(workload, seed, 1)
        shape = checking.SHAPES[workload]
        OnlineCheckingSession(
            checking.initialize(instance), instance.experts, shape.budget,
            selector=LazyGreedySelector(), k=shape.k,
            ground_truth=instance.truth,
        )
        SimulatedExpertPanel(instance.truth, rng=seed)
        ready = time.perf_counter()
    print(json.dumps({"imported": imported, "ready": ready,
                      "gen_s": gen_s}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up and import reference seconds over fresh
    interpreters, each timed from just before its start
    (``perf_counter`` is the system's monotonic clock, shared by parent
    and child)."""
    from speed import INTERVAL, REFERENCE_S, SpeedTrack

    speed = SpeedTrack()
    setups, imports = [], []
    log = SCRATCH / f"probe-{os.getpid()}.log"
    for _ in range(SETUP_PROBES):
        speed.sample()
        started = time.perf_counter()
        # Output goes to a file: shard workers inherit it, and a pipe
        # nobody reads until the child exits could fill and stall them.
        with open(log, "w+", encoding="utf-8") as output, subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=output, stderr=subprocess.STDOUT,
        ) as child:
            # The host's speed while the child sets up, sampled from here
            # (the kernel runs take about 1 % of one CPU).
            while child.poll() is None:
                if time.perf_counter() - started > PROBE_TIMEOUT_S:
                    child.kill()
                speed.sample()
                time.sleep(INTERVAL)
            output.seek(0)
            text = output.read()
        ended = time.perf_counter()
        speed.sample()
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{text}")
        stamps = json.loads(next(
            line for line in reversed(text.splitlines())
            if line.startswith('{"imported"')
        ))
        scale = REFERENCE_S / speed.kernel_mean(started, ended)
        setups.append((stamps["ready"] - started - stamps["gen_s"]) * scale)
        imports.append((stamps["imported"] - started) * scale)
    log.unlink()
    return statistics.median(setups), statistics.median(imports)


def check_manifest() -> None:
    """Fail loudly when BENCHMARK.json and this file name different
    metrics."""
    manifest = Path("BENCHMARK.json")
    if not manifest.is_file():
        return
    spec = json.loads(manifest.read_text())
    declared = (
        {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
        {entry["name"] for entry in spec["workloads"]},
    )
    if declared != (END_TO_END, PER_LAYER, set(WORKLOADS)):
        raise SystemExit("BENCHMARK.json does not match perfbench/run.py")


def run_workload(args) -> int:
    traced = bool(args.trace)
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "durable":
            import durable
            try:
                outcome = durable.run(args.seed, args.seconds, traced,
                                      workdir)
            finally:
                durable.stop_resource_tracker()
        else:
            import checking
            outcome = checking.run(args.workload, args.seed, args.seconds,
                                   traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(ok for _name, ok, _detail in outcome["checks"])
    metrics = {}
    if correct:
        setup_s, import_s = measure_setup(args.workload, args.seed)
        if traced:
            values = dict(outcome["layer"], **{"repro.import_s": import_s})
            units = PER_LAYER
            outcome["spans"].write(
                SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl"
            )
        else:
            values = dict(outcome["end_to_end"], setup_s=setup_s)
            units = END_TO_END
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        }

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for name, ok, detail in outcome["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    for line in outcome.get("notes", []):
        print(f"  {line}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(
                result, workload=args.workload, seed=args.seed,
                trace=args.trace,
            )) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        import compare
        return compare.main(*args.compare)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is "
              "missing", file=sys.stderr)
        return 2
    # Shard workers are spawned and inherit sys.path, so this reaches
    # them too.
    sys.path.insert(0, str(Path("src").resolve()))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    check_manifest()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
