"""The three workloads: what one round runs, how it is timed, how it is checked.

Each workload is a closed loop: one caller (this process) waits for every
command or search to finish before it starts the next, and the only other
process is at most one scorer child started by ``recipesearch`` itself. A
round is a fixed list of operations, so every round of a workload does the
same work on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse as sp

import recipesearch.cli as cli
import recipesearch.controller as controller
import recipesearch.operators as operators
from checks import (
    Reference,
    check_command_run,
    check_operator_outputs,
    check_semdedup,
    close,
    read_ledger,
    read_manifest,
    read_scorer_log,
)
from recipesearch.oracle import EvalOutcome

BUDGET = 15
CANDIDATES = 5
WARMUP = 3
SCORER = Path(__file__).resolve().parent / "scorer.sh"


# Seconds at a reference speed. The speed of the shared machine drifts by up
# to 1.7x in phases that last from seconds to minutes (see README), so every
# timed section is scaled by PROBE_REFERENCE_S over the mean time of a fixed
# probe run just before and just after it. The probe mixes the kinds of work
# the program does but never calls it, so a faster program is not mistaken
# for a faster machine.
PROBE_REFERENCE_S = 0.020


def _probe_once() -> float:
    """Wall time of a stable argsort, per-id hashing, JSON lines and sparse products."""
    start = time.perf_counter()
    values = np.random.default_rng(0).random(50000)
    np.sort(np.argsort(-values, kind="stable")[:25000])
    digest = hashlib.sha256()
    for sid in sorted(f"s{i:05d}" for i in range(4000)):
        digest.update(sid.encode())
        digest.update(b"\x00")
    record = {"instruction": "solve the graph " * 3, "response": "count node edge " * 5,
              "source": "tulu"}
    text = "\n".join(json.dumps({**record, "id": f"s{i:05d}"}, sort_keys=True)
                     for i in range(300))
    for line in text.splitlines():
        json.loads(line)
    x = sp.random(300, 64, density=0.06, random_state=0, format="csr")
    for i in range(1, 25):
        (x[:i] @ x[i].T).toarray()
    return time.perf_counter() - start


def probe() -> float:
    """Fastest of three probes, so that one stall does not pass for a slow phase."""
    return min(_probe_once() for _ in range(3))


class Section:
    """One timed section: CLOCK_MONOTONIC start and end, and its speed scale."""

    def __enter__(self) -> "Section":
        self._probe_before = probe()
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.monotonic()
        self.scale = PROBE_REFERENCE_S / ((self._probe_before + probe()) / 2)

    def seconds(self, until: float | None = None) -> float:
        """Scaled seconds from the start to ``until`` (default: the end)."""
        return ((self.end if until is None else until) - self.start) * self.scale


@dataclass
class Round:
    """Totals of one round's timed sections, in scaled seconds."""

    wall_s: float = 0.0        # search or command wall time
    unscaled_wall_s: float = 0.0
    first_eval_s: float = 0.0  # start of each search/command to its first oracle request
    evals: int = 0             # evaluations completed
    attempted: int = 0         # evaluations attempted
    commands: int = 0          # CLI commands attempted
    failed_commands: int = 0

    def add(self, section: Section, first_request: float | None, evals: int) -> None:
        self.wall_s += section.seconds()
        self.unscaled_wall_s += section.end - section.start
        if first_request is not None:
            self.first_eval_s += section.seconds(first_request)
        self.evals += evals
        self.attempted += BUDGET


@dataclass
class Context:
    data: Path        # dataset directory (pool.jsonl, signals.jsonl, targets.json)
    run_dir: Path     # fresh output directory of this run
    pool_size: int
    artifacts: list = field(default_factory=list)  # what the checks need, per operation

    def data_args(self) -> list[str]:
        return ["--pool", str(self.data / "pool.jsonl"),
                "--signals", str(self.data / "signals.jsonl"),
                "--targets", str(self.data / "targets.json")]

    def oracle_args(self, log: Path) -> list[str]:
        return ["--oracle", "command", "--oracle-cmd", "sh", str(SCORER), sys.executable,
                str(self.pool_size), str(log)]


def run_cli(argv: list[str]) -> int:
    """One in-process ``recipesearch`` command; its printed output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def first_request(log: Path) -> float | None:
    """When the scorer started for the first time (CLOCK_MONOTONIC)."""
    return read_scorer_log(log)[0][0] if log.exists() else None


def count_evals(ledger: Path) -> int:
    if not ledger.exists():
        return 0
    return sum(1 for e in read_ledger(ledger) if e.get("type") == "eval")


# ---------------------------------------------------------------------------
# search_dedup: `recipesearch run`, full catalog, 1k x 64 pool, command oracle
# ---------------------------------------------------------------------------

class SearchDedup:
    """Full-catalog fallback searches through ``cli.main``, one per master seed.

    The master seeds are ones whose search costs about the same on every
    pool seed (see README): seed 1 flips between 2 s and 10 s with the pool
    and seeds 3, 9, 10 and 11 take about 20 s alone, either of which would
    make a round's cost follow the workload seed instead of the program.
    """

    pool_kind = "small"
    setup_reps, setup_loads = 5, 10
    master_seeds = (2, 8, 12)

    def prepare(self, ctx: Context, pool, signals) -> None:
        pass

    def round(self, ctx: Context, index: int) -> Round:
        stats = Round()
        for seed in self.master_seeds:
            out = ctx.run_dir / f"round{index}-seed{seed}"
            log = out / "scorer.log"
            with Section() as section:
                code = run_cli(
                    ["run", *ctx.data_args(), *ctx.oracle_args(log), "--out-dir", str(out),
                     "--budget", str(BUDGET), "--candidates", str(CANDIDATES),
                     "--master-seed", str(seed)]
                )
            stats.add(section, first_request(log), count_evals(out / "ledger.jsonl"))
            stats.commands += 1
            stats.failed_commands += code != 0
            ctx.artifacts.append(out)
        return stats

    def check(self, ctx: Context, ref: Reference, problems: list[str]) -> None:
        for out in ctx.artifacts:
            evals = check_command_run(out, ref, problems)
            if len(evals) != BUDGET or sum(e["is_warmup"] for e in evals) != WARMUP:
                problems.append(f"{out}: expected {BUDGET} evals, {WARMUP} of them warmup")
                continue
            best = json.loads((out / "best_recipe.json").read_text(encoding="utf-8"))
            _, best_pos = read_manifest(out / "best_subset.jsonl", ref, problems)
            if best["score"] != max(e["score"] for e in evals) or \
                    best_pos.size != best["subset_size"]:
                problems.append(f"{out}: best_recipe.json does not match the ledger")
            if any(s["operator"] == operators.MIX for s in best["recipe"]["steps"]):
                continue
            recipe = out / "best_recipe_steps.json"
            recipe.write_text(json.dumps(best["recipe"]), encoding="utf-8")
            code = run_cli(["exec", *ctx.data_args(), "--recipe", str(recipe),
                            "--out", str(out / "exec_subset.jsonl")])
            if code != 0:
                problems.append(f"{out}: recipesearch exec exited {code}")
                continue
            _, exec_pos = read_manifest(out / "exec_subset.jsonl", ref, problems)
            if not np.array_equal(exec_pos, best_pos):
                problems.append(f"{out}: exec of best_recipe.json does not reproduce "
                                "best_subset.jsonl")

    def check_trace(self, tracer, problems: list[str]) -> None:
        check_operator_outputs(tracer, problems)
        if check_semdedup(tracer, problems) == 0:
            problems.append("search_dedup: the traced round made no SemDedup call")


# ---------------------------------------------------------------------------
# search_large: library run_search, 50k x 4096 pool, planted quadratic oracle
# ---------------------------------------------------------------------------

RETAIN_TARGET = 0.3
RELEVANCE_TARGET = 0.004


def planted_score(retain_ratio: float, relevance: float) -> float:
    """Peaks at a retain ratio and a mean relevance that no recipe reaches together."""
    return (1.0 - (retain_ratio - RETAIN_TARGET) ** 2
            - ((relevance - RELEVANCE_TARGET) / RELEVANCE_TARGET) ** 2)


class PlantedOracle:
    """The benchmark's synthetic oracle; remembers when it was first asked."""

    def __init__(self) -> None:
        self.first_request: float | None = None

    def evaluate(self, request, state) -> EvalOutcome:
        if self.first_request is None:
            self.first_request = time.monotonic()
        return EvalOutcome(score=planted_score(state.retain_ratio, state.score_mean))


class SearchLarge:
    """Library searches at the target pool size, every operator but SemDedup.

    The master seeds are ones whose searches pass about the same number of
    samples through the selectors and ``content_hash`` on every pool seed
    (see README); seeds 4, 7 and 9 change path with the pool.
    """

    pool_kind = "large"
    setup_reps, setup_loads = 3, 1
    master_seeds = (1, 2, 3, 5, 6)

    def prepare(self, ctx: Context, pool, signals) -> None:
        self.pool, self.signals = pool, signals
        names = [n for n in operators.default_catalog(len(pool)).names()
                 if n != operators.SEMDEDUP]
        self.catalog = operators.default_catalog(len(pool), operators=names)

    def round(self, ctx: Context, index: int) -> Round:
        stats = Round()
        for seed in self.master_seeds:
            oracle = PlantedOracle()
            config = controller.SearchConfig(
                budget=BUDGET, candidates_per_step=CANDIDATES, master_seed=seed,
            )
            with Section() as section:
                result = controller.run_search(config, self.pool, self.signals, oracle,
                                               catalog=self.catalog)
            stats.add(section, oracle.first_request, len(result.records))
            ctx.artifacts.append((seed, result))
        return stats

    def check(self, ctx: Context, ref: Reference, problems: list[str]) -> None:
        total_tokens = ref.tokens.sum()
        mean_ifd = ref.ifd.mean()
        for seed, result in ctx.artifacts:
            records = result.records
            if len(records) != BUDGET or [r.is_warmup for r in records] != \
                    [True] * WARMUP + [False] * (BUDGET - WARMUP):
                problems.append(f"search seed {seed}: expected {BUDGET} evals, "
                                f"the first {WARMUP} warmup")
                continue
            pos = np.array(sorted(ref.id_pos[i] for i in result.incumbent_ids))
            if np.unique(pos).size != len(result.incumbent_ids):
                problems.append(f"search seed {seed}: incumbent ids are not distinct")
                continue
            state = next(r.state for r in records if r.step == result.incumbent_step)
            retain = pos.size / len(ref)
            relevance = ref.relevance[pos].mean()
            expected = {
                "retain_ratio": retain,
                "token_ratio": ref.tokens[pos].sum() / total_tokens,
                "mean_ifd": ref.ifd[pos].mean() / mean_ifd,
                "score_mean": relevance,
            }
            for name, value in expected.items():
                if not close(getattr(state, name), value):
                    problems.append(f"search seed {seed}: incumbent {name} "
                                    f"{getattr(state, name)!r} != {value!r} from the inputs")
            if not close(result.incumbent_score, planted_score(retain, relevance)) or \
                    result.incumbent_score != max(r.score for r in records):
                problems.append(f"search seed {seed}: incumbent score does not match its subset")


# ---------------------------------------------------------------------------
# baseline_manifest: `recipesearch baseline --suite random_topk`, then `report`
# ---------------------------------------------------------------------------

class BaselineManifest:
    """The random top-k baseline on the 50k pool with the command oracle.

    Every evaluation writes a manifest of half the pool, so the round is
    ingestion, manifest writing and the scorer, with no search around them.
    """

    pool_kind = "large"
    setup_reps, setup_loads = 3, 1
    master_seed = 1

    def prepare(self, ctx: Context, pool, signals) -> None:
        pass

    def round(self, ctx: Context, index: int) -> Round:
        stats = Round()
        out = ctx.run_dir / f"round{index}"
        log = out / "scorer.log"
        with Section() as section:
            code = run_cli(
                ["baseline", *ctx.data_args(), *ctx.oracle_args(log),
                 "--suite", "random_topk", "--size", str(ctx.pool_size // 2),
                 "--budget", str(BUDGET), "--master-seed", str(self.master_seed),
                 "--out-dir", str(out)]
            )
            report_code = run_cli(
                ["report", str(out / "ledger.jsonl"), "--out-dir", str(out / "report")]
            )
        stats.add(section, first_request(log), count_evals(out / "ledger.jsonl"))
        stats.commands = 2
        stats.failed_commands = (code != 0) + (report_code != 0)
        ctx.artifacts.append(out)
        return stats

    def check(self, ctx: Context, ref: Reference, problems: list[str]) -> None:
        size = min(ctx.pool_size // 2, len(ref))
        for out in ctx.artifacts:
            evals = check_command_run(out, ref, problems)
            if len(evals) != BUDGET or any(e["subset_size"] != size for e in evals):
                problems.append(f"{out}: expected {BUDGET} subsets of {size} ids")
            scores = [e["score"] for e in evals]
            with open(out / "report" / "curves.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if [float(r["score"]) for r in rows] != scores or \
                    [float(r["best_so_far"]) for r in rows] != \
                    np.maximum.accumulate(scores).tolist():
                problems.append(f"{out}: curves.csv best_so_far is not the running max")


WORKLOADS = {
    "search_dedup": SearchDedup,
    "search_large": SearchLarge,
    "baseline_manifest": BaselineManifest,
}
