"""Benchmark of recipesearch: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload search_dedup --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. The run generates (or reuses) the
workload's inputs from ``--seed`` in a child process, times the set-up, then
repeats whole rounds of the workload until ``--seconds`` have passed, checks
every output, and prints one JSON object as its last line. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs

SOURCE = inputs.ROOT / "src"

# Pin BLAS threads before numpy is imported, here or in any child process.
CPUS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = CPUS


def load(data: Path):
    """The set-up every workload times: load_pool, then load_signals."""
    import recipesearch.pool as pool_mod

    pool = pool_mod.load_pool(str(data / "pool.jsonl"))
    return pool, pool_mod.load_signals(
        str(data / "signals.jsonl"), str(data / "targets.json"), pool
    )


def time_setup(workload, data: Path):
    """Median time of one set-up over the workload's repetitions, and a load."""
    from workloads import Section

    times = []
    for _ in range(workload.setup_reps):
        with Section() as section:
            for _ in range(workload.setup_loads):
                loaded = load(data)
        times.append(section.seconds() / workload.setup_loads)
    return statistics.median(times), loaded


def run_rounds(workload, ctx, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(workload.round(ctx, len(rounds)))
    return rounds


def end_to_end(workload, ctx, seconds: float) -> tuple[list, dict]:
    setup_s, loaded = time_setup(workload, ctx.data)
    workload.prepare(ctx, *loaded)
    del loaded
    rounds = run_rounds(workload, ctx, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Totals over the run rather than medians over its two to four rounds:
    # with the machine's speed drifting, the mean over the whole run is the
    # steadiest estimate (see README).
    metrics = {
        "setup_s": (setup_s, "s"),
        "first_eval_s": (sum(r.first_eval_s for r in rounds) / len(rounds), "s"),
        "evals_per_s": (sum(r.evals for r in rounds) / sum(r.wall_s for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return rounds, metrics


def per_layer(workload, ctx) -> tuple[list, dict, object]:
    from tracing import Tracer

    workload.prepare(ctx, *load(ctx.data))
    untraced = workload.round(ctx, 0)

    tracer = Tracer(keep_operator_io=hasattr(workload, "check_trace"))
    tracer.install()
    try:
        workload.prepare(ctx, *load(ctx.data))
        traced = workload.round(ctx, 1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    tracer.write(ctx.run_dir / "spans.jsonl")
    return [untraced, traced], metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="recipesearch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "recipesearch" / "__init__.py").is_file():
        print(f"no recipesearch sources under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from checks import Reference
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    data = inputs.ensure_dataset(workload.pool_kind, args.seed)
    run_dir = inputs.BENCH_DIR / "_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    )
    run_dir.mkdir(parents=True)
    ctx = Context(data=data, run_dir=run_dir, pool_size=inputs.POOLS[workload.pool_kind][0])

    if args.trace:
        rounds, metrics, tracer = per_layer(workload, ctx)
    else:
        rounds, metrics = end_to_end(workload, ctx, args.seconds)
        tracer = None

    problems: list[str] = []
    workload.check(ctx, Reference(data), problems)
    if tracer is not None and hasattr(workload, "check_trace"):
        workload.check_trace(tracer, problems)
    for path in list(run_dir.rglob("manifests")):
        shutil.rmtree(path)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds)
    failed = attempted - sum(r.evals for r in rounds)
    commands = sum(r.commands for r in rounds)
    failed_commands = sum(r.failed_commands for r in rounds)
    unscaled_rate = sum(r.evals for r in rounds) / sum(r.unscaled_wall_s for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"evaluations {attempted} attempted / {failed} failed, "
          f"commands {commands} attempted / {failed_commands} failed, "
          f"unscaled evals_per_s {unscaled_rate:.4f}, outputs in {run_dir}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
