"""Command-line surface: ingestion checks, execution, search runs, reports.

Subcommands: ingest-check, exec, run, baseline, report. Runs and baselines
write an append-only JSONL ledger (header line first, then eval and event
lines in step order, then a result or abort line); a run also writes the
best-recipe JSON and the selected-subset manifest. Baseline suites are
recipe sources evaluated by the search's own runtime, so their eval events
match a run's. Reports are pure functions of ledger bytes and come out as
CSV files.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from .controller import (
    ControllerError,
    SearchConfig,
    WARMUP_COUNT,
    WARMUP_RESAMPLE_CAP,
    _Runtime,
    role_rng,
    run_search,
    state_correlations,
    tertile_counts,
)
from .operators import (
    AO_TOPFRAC,
    IFD_TOPFRAC,
    MONA_FILTER,
    NGRAM_TOPFRAC,
    RANDOM_K,
    SEMDEDUP,
    STOCHASTIC_OPERATORS,
    VARENTROPY_TOPFRAC,
    OperatorSpec,
    Subset,
    default_catalog,
)
from .oracle import (
    CommandOracle,
    EvalRequest,
    OracleError,
    SyntheticOracle,
    SyntheticOracleSpec,
    write_manifest,
)
from .pool import PoolError, load_pool, load_signals
from .recipe import (
    ExecutionError,
    Recipe,
    RecipeValidationError,
    describe_recipe,
    execute_recipe,
    parse_recipe,
    recipe_to_obj,
    validate_recipe,
)
from .state import StateError, compute_state, flat_field_names, state_from_dict

logger = logging.getLogger(__name__)

ENV_ASSISTANT_PREFIX = "RECIPESEARCH_ASSISTANT_CMD"

SINGLE_OP_SELECTORS = (
    MONA_FILTER, IFD_TOPFRAC, VARENTROPY_TOPFRAC, NGRAM_TOPFRAC, AO_TOPFRAC, SEMDEDUP,
)
# Size-controlled selectors default to half retention; relevance filtering
# keeps its conventional much smaller per-benchmark fraction.
SINGLE_OP_DEFAULT_FRACTION = 0.5
SINGLE_OP_MONA_FRACTION = 0.05
SINGLE_OP_SEMDEDUP_TAU = 0.75


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


class RunLedger:
    """Append-only JSONL run ledger: header first, one JSON object per line."""

    def __init__(self, path: str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(_jsonable(event), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_ledger(path: str) -> tuple[list[dict], int]:
    """Parse a ledger; corrupt lines (not one JSON object) are skipped and counted."""
    events: list[dict] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except (json.JSONDecodeError, RecursionError):
                event = None
            if isinstance(event, dict):
                events.append(event)
            else:
                skipped += 1
    if skipped:
        logger.warning("%s: skipped %d corrupt ledger line(s)", path, skipped)
    return events, skipped


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------

def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pool", required=True, help="pool JSONL file")
    p.add_argument("--signals", required=True, help="signals JSONL file")
    p.add_argument("--targets", required=True, help="benchmark targets JSON file")


def _add_oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--oracle", choices=("synthetic", "command"), default="synthetic",
        help="evaluation oracle kind",
    )
    p.add_argument("--oracle-spec", help="synthetic oracle spec JSON file")
    p.add_argument(
        "--oracle-cmd", nargs="+", help="external evaluation command argv"
    )
    p.add_argument(
        "--oracle-timeout", type=float, default=None,
        help="external command timeout in seconds",
    )


def _load_data(args):
    pool = load_pool(args.pool)
    signals = load_signals(args.signals, args.targets, pool)
    return pool, signals


def _build_oracle(args, pool, signals, out_dir: Path):
    """The run's oracle, or None after reporting a rejected timeout or spec."""
    timeout = args.oracle_timeout
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        print(f"config rejected: --oracle-timeout must be a finite number > 0, got {timeout}",
              file=sys.stderr)
        return None
    if args.oracle == "command":
        if not args.oracle_cmd:
            raise SystemExit("--oracle command requires --oracle-cmd")
        kwargs = {}
        if timeout is not None:
            kwargs["timeout"] = timeout
        return CommandOracle(args.oracle_cmd, str(out_dir / "manifests"), pool, **kwargs)
    if not args.oracle_spec:
        return SyntheticOracle(SyntheticOracleSpec(family="constant", value=0.0))
    try:
        with open(args.oracle_spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = flat_field_names(signals.benchmarks)
        return SyntheticOracle(SyntheticOracleSpec.from_dict(doc, names))
    except (OSError, ValueError, RecursionError) as exc:
        print(f"oracle spec rejected: {exc}", file=sys.stderr)
        return None


def _assistant_commands(args) -> dict[str, list[str]]:
    """Role argv from ``--assistant-cmd`` and the environment, split shell-style."""
    commands: dict[str, list[str]] = {}
    for spec in args.assistant_cmd or []:
        role, _, cmd = spec.partition("=")
        if not cmd:
            raise SystemExit(f"--assistant-cmd must look like role=command, got {spec!r}")
        commands[role] = shlex.split(cmd)
    default_env = os.environ.get(ENV_ASSISTANT_PREFIX)
    for role in ("summarizer", "proposer", "ranker", "reseeder"):
        env = os.environ.get(f"{ENV_ASSISTANT_PREFIX}_{role.upper()}")
        if env:
            commands[role] = shlex.split(env)
        elif default_env and role not in commands:
            commands[role] = shlex.split(default_env)
    return commands


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest_check(args) -> int:
    try:
        pool, signals = _load_data(args)
    except (PoolError, OSError) as exc:
        print(f"ingest-check failed: {exc}", file=sys.stderr)
        return 1
    print(f"pool: {len(pool)} samples, {pool.total_tokens} tokens")
    print(f"pool digest: {pool.content_digest()}")
    print(f"signals: sae_dim {signals.sae_dim}, benchmarks {', '.join(signals.benchmarks)}")
    print(f"mean ifd {signals.pool_mean_ifd:.4f}, mean varentropy {signals.pool_mean_varentropy:.4f}")
    return 0


def _print_rejection(violations: list[str]) -> None:
    print("recipe rejected:", file=sys.stderr)
    for violation in violations:
        print(f"  - {violation}", file=sys.stderr)


def _apply_seed_overrides(recipe: Recipe, seeds: list[int] | None) -> Recipe:
    stochastic = [
        (i, s.operator) for i, s in enumerate(recipe.steps)
        if s.operator in STOCHASTIC_OPERATORS
    ]
    if not seeds:
        return recipe
    if any(s < 0 for s in seeds):
        raise SystemExit("seed overrides must be nonnegative integers")
    if not stochastic:
        logger.warning("recipe has no stochastic steps; seed overrides ignored")
        print("warning: recipe has no stochastic steps; seed overrides ignored",
              file=sys.stderr)
        return recipe
    if len(seeds) != len(stochastic):
        names = ", ".join(f"step {i + 1} ({op})" for i, op in stochastic)
        raise SystemExit(
            f"{len(seeds)} seed override(s) for {len(stochastic)} stochastic step(s): {names}"
        )
    steps = list(recipe.steps)
    for (i, _), seed in zip(stochastic, seeds):
        params = dict(steps[i].params)
        params["seed"] = int(seed)
        steps[i] = OperatorSpec(steps[i].operator, params)
    return Recipe(tuple(steps))


def cmd_exec(args) -> int:
    try:
        pool, signals = _load_data(args)
    except (PoolError, OSError) as exc:
        print(f"ingestion failed: {exc}", file=sys.stderr)
        return 1
    catalog = default_catalog(len(pool))
    try:
        text = Path(args.recipe).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ingestion failed: recipe {args.recipe}: {exc}", file=sys.stderr)
        return 1
    try:
        recipe = parse_recipe(text, catalog, args.l_max)
    except RecipeValidationError as exc:
        _print_rejection(exc.violations)
        return 1
    recipe = _apply_seed_overrides(recipe, args.seeds)
    try:
        subset = execute_recipe(recipe, pool, signals)
    except ExecutionError as exc:
        print(f"execution aborted: {exc}", file=sys.stderr)
        return 1
    state = compute_state(subset, pool, signals)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    request = EvalRequest(
        run_id=args.run_id or "exec", step=0, recipe=recipe, subset=subset,
    )
    write_manifest(str(out), pool, request)
    state_path = args.state_out or str(out) + ".state.json"
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(state.to_dict()), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"selected {len(subset)} of {len(pool)} samples -> {out}")
    print(f"state vector -> {state_path}")
    return 0


def _write_run_outputs(out_dir: Path, result, pool) -> None:
    best = {
        "recipe": recipe_to_obj(result.incumbent_recipe),
        "score": result.incumbent_score,
        "step": result.incumbent_step,
        "subset_size": len(result.incumbent_ids),
    }
    with open(out_dir / "best_recipe.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(best), fh, sort_keys=True, indent=2)
        fh.write("\n")
    request = EvalRequest(
        run_id="best", step=result.incumbent_step,
        recipe=result.incumbent_recipe,
        subset=Subset.from_ids(result.incumbent_ids, pool),
    )
    write_manifest(str(out_dir / "best_subset.jsonl"), pool, request)


# Run failures that end a command with one line on stderr and exit code 1.
RUN_ERRORS = (OracleError, ControllerError, ExecutionError, StateError)


def _ledger_run(out_dir: Path, header: dict, body, label: str) -> int:
    """Write the ledger header, run ``body(ledger)``, and close the ledger.

    On any exception the ledger ends with an ``abort`` line. A run failure
    prints one line and returns 1; anything else re-raises.
    """
    ledger = RunLedger(str(out_dir / "ledger.jsonl"))
    ledger.write(header)
    try:
        body(ledger)
    except BaseException as exc:
        expected = isinstance(exc, RUN_ERRORS)
        error = str(exc) if expected else f"{type(exc).__name__}: {exc}"
        ledger.write({"type": "abort", "error": error})
        if not expected:
            raise
        print(f"{label} aborted: {exc} (partial ledger kept at {ledger.path})",
              file=sys.stderr)
        return 1
    finally:
        ledger.close()
    return 0


def cmd_run(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        pool, signals = _load_data(args)
    except (PoolError, OSError) as exc:
        print(f"ingestion failed: {exc}", file=sys.stderr)
        return 1
    config = SearchConfig(
        budget=args.budget,
        patience=args.patience,
        candidates_per_step=args.candidates,
        l_max=args.l_max,
        master_seed=args.master_seed,
        assistant_mode=args.assistant_mode,
        assistant_commands=_assistant_commands(args),
        random_select=args.random_select,
        run_id=args.run_id,
    )
    try:
        config.validate()
    except ControllerError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    catalog = default_catalog(len(pool))
    oracle = _build_oracle(args, pool, signals, out_dir)
    if oracle is None:
        return 2
    (out_dir / "catalog.json").write_text(catalog.to_json() + "\n", encoding="utf-8")
    header = {
        "type": "header",
        "run_id": config.resolved_run_id(),
        "mode": "search",
        "config": config.to_dict(),
        "catalog_digest": catalog.digest(),
        "pool_digest": pool.content_digest(),
    }

    def body(ledger: RunLedger) -> None:
        result = run_search(config, pool, signals, oracle, catalog=catalog,
                            sink=ledger.write)
        ledger.write({
            "type": "result",
            "incumbent_step": result.incumbent_step,
            "score": result.incumbent_score,
            "recipe": recipe_to_obj(result.incumbent_recipe),
            "subset_size": len(result.incumbent_ids),
        })
        _write_run_outputs(out_dir, result, pool)
        print(f"incumbent score {result.incumbent_score:.6f} at step {result.incumbent_step}")
        print(f"incumbent recipe: {describe_recipe(result.incumbent_recipe)}")
        print(f"artifacts in {out_dir}")

    return _ledger_run(out_dir, header, body, "run")


def _default(value, fallback):
    return fallback if value is None else value


def _suite_recipes(args, pool_size: int, rng: np.random.Generator) -> list[Recipe]:
    """The fixed recipes of the random_topk and single_op suites, in order.

    random_topk gives ``budget`` recipes and single_op one per selector;
    random_recipe draws its recipes during the run and has none here.
    """
    if args.suite == "random_recipe":
        return []
    if args.suite == "random_topk":
        k = _default(args.size, max(1, pool_size // 2))
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(args.budget)]
        return [Recipe((OperatorSpec(RANDOM_K, {"k": k, "seed": seed}),)) for seed in seeds]
    recipes = []
    for selector in SINGLE_OP_SELECTORS:
        if selector == SEMDEDUP:
            params = {
                "n_clusters": _default(args.clusters, max(1, min(pool_size // 64, 32))),
                "tau": _default(args.tau, SINGLE_OP_SEMDEDUP_TAU),
                "seed": args.master_seed,
            }
        elif selector == MONA_FILTER:
            params = {"fraction": _default(args.mona_fraction, SINGLE_OP_MONA_FRACTION)}
        else:
            params = {"fraction": _default(args.fraction, SINGLE_OP_DEFAULT_FRACTION)}
        recipes.append(Recipe((OperatorSpec(selector, params),)))
    return recipes


def _baseline_candidates(args, rt: _Runtime, recipes: list[Recipe], rng):
    """Materialized candidates in evaluation order.

    A random_recipe step draws until a recipe executes, up to
    WARMUP_RESAMPLE_CAP draws; a fixed suite recipe that aborts ends the run.
    """
    if args.suite != "random_recipe":
        for recipe in recipes:
            yield rt.materialize(recipe)
        return
    for _ in range(args.budget):
        cand = rt.draw_candidate(rng, WARMUP_RESAMPLE_CAP)
        if cand is None:
            raise ControllerError(
                f"no executable random recipe after {WARMUP_RESAMPLE_CAP} draws"
            )
        yield cand


def cmd_baseline(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for flag, value in (("--budget", args.budget), ("--l-max", args.l_max)):
        if value < 1:
            print(f"config rejected: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    try:
        pool, signals = _load_data(args)
    except (PoolError, OSError) as exc:
        print(f"ingestion failed: {exc}", file=sys.stderr)
        return 1
    catalog = default_catalog(len(pool))
    rng = role_rng(args.master_seed, 0, "baseline")
    recipes = _suite_recipes(args, len(pool), rng)
    for recipe in recipes:
        violations = validate_recipe(recipe, catalog, args.l_max)
        if violations:
            _print_rejection(violations)
            return 2
    oracle = _build_oracle(args, pool, signals, out_dir)
    if oracle is None:
        return 2
    run_id = args.run_id or f"baseline-{args.suite}-seed{args.master_seed}"
    header = {
        "type": "header",
        "run_id": run_id,
        "mode": f"baseline:{args.suite}",
        "config": {
            "suite": args.suite, "budget": args.budget,
            "master_seed": args.master_seed, "l_max": args.l_max,
        },
        "catalog_digest": catalog.digest(),
        "pool_digest": pool.content_digest(),
    }
    config = SearchConfig(
        budget=args.budget, l_max=args.l_max, master_seed=args.master_seed, run_id=run_id,
    )

    def body(ledger: RunLedger) -> None:
        rt = _Runtime(config, pool, signals, oracle, catalog, ledger.write)
        for cand in _baseline_candidates(args, rt, recipes, rng):
            rt.evaluate(len(rt.history) + 1, cand, is_warmup=False)
        best = rt.history.incumbent()
        print(f"{args.suite}: {len(rt.history)} evaluations, best score {best.score:.6f} "
              f"at step {best.step}")

    return _ledger_run(out_dir, header, body, "baseline")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

GAP_AREA_NOTE = (
    "gap_area: artifact-defined reconstruction = sum over the window of "
    "(best_so_far(t) - score(t))"
)


def _eval_rows(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("type") == "eval"]


def _best_so_far(scores: list[float]) -> list[float]:
    best: list[float] = []
    cur = -float("inf")
    for s in scores:
        cur = max(cur, s)
        best.append(cur)
    return best


def gap_area(scores: list[float], start: int, end: int) -> float:
    """Summed positive gap between the running best and each raw score."""
    best = _best_so_far(scores)
    total = 0.0
    for step in range(start, min(end, len(scores)) + 1):
        total += max(0.0, best[step - 1] - scores[step - 1])
    return total


def _ledger_summary(path: str, events: list[dict]) -> dict:
    rows = _eval_rows(events)
    scores = [r["score"] for r in rows]
    n = len(scores)
    window_start = min(WARMUP_COUNT + 1, n) if n else 1
    return {
        "ledger": path,
        "records": n,
        "best": max(scores) if scores else float("nan"),
        "mean": float(np.mean(scores)) if scores else float("nan"),
        "best_post_warmup": max(scores[WARMUP_COUNT:]) if n > WARMUP_COUNT else float("nan"),
        "gap_area_post_warmup": gap_area(scores, window_start, n) if scores else 0.0,
        "reseeds": sum(1 for e in events if e.get("type") == "reseed"),
        "assistant_failures": sum(1 for e in events if e.get("type") == "assistant_failure"),
    }


def cmd_report(args) -> int:
    all_rows: dict[str, list[dict]] = {}
    summaries = []
    skipped_total = 0
    for path in args.ledgers:
        try:
            events, skipped = read_ledger(path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"ingestion failed: ledger {path}: {exc}", file=sys.stderr)
            return 1
        skipped_total += skipped
        all_rows[path] = _eval_rows(events)
        summaries.append(_ledger_summary(path, events))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "curves.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ledger", "step", "score", "best_so_far"])
        for path, rows in all_rows.items():
            best = _best_so_far([r["score"] for r in rows])
            for row, b in zip(rows, best):
                writer.writerow([path, row["step"], row["score"], b])

    with open(out_dir / "scatter.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ledger", "step", "subset_size", "retain_ratio", "score"])
        for path, rows in all_rows.items():
            for row in rows:
                writer.writerow([
                    path, row["step"], row["subset_size"],
                    row["state"]["retain_ratio"], row["score"],
                ])

    with open(out_dir / "motifs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ledger", "pair", "top_count", "bottom_count", "delta"])
        for path, rows in all_rows.items():
            _, pairs = tertile_counts([
                (r["score"], r["step"], [s["operator"] for s in r["recipe"]["steps"]])
                for r in rows
            ])
            table = sorted(
                ((f"{a}->{b}", top, bottom, top - bottom)
                 for (a, b), (top, bottom) in pairs.items()),
                key=lambda t: (-t[3], t[0]),
            )
            for row in table:
                writer.writerow([path, *row])

    with open(out_dir / "state_correlations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ledger", "field", "spearman"])
        for path, rows in all_rows.items():
            fields = [state_from_dict(r["state"]).flat_fields() for r in rows]
            for name, rho in state_correlations(fields, [r["score"] for r in rows]):
                writer.writerow([path, name, rho])

    with open(out_dir / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {GAP_AREA_NOTE}\n")
        writer = csv.writer(fh)
        columns = [
            "ledger", "records", "best", "mean", "best_post_warmup",
            "gap_area_post_warmup", "reseeds", "assistant_failures",
        ]
        writer.writerow(columns)
        for summary in summaries:
            writer.writerow([summary[c] for c in columns])

    if skipped_total:
        print(f"warning: skipped {skipped_total} corrupt ledger line(s)", file=sys.stderr)
    print(f"reports in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipesearch",
        description="Budgeted search over executable data-curation recipes",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate pool and signal files")
    _add_data_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("exec", help="execute one recipe with explicit seeds")
    _add_data_args(p)
    p.add_argument("--recipe", required=True, help="recipe JSON file")
    p.add_argument("--seeds", type=int, nargs="+",
                   help="seed overrides, one per stochastic step")
    p.add_argument("--out", required=True, help="manifest output path")
    p.add_argument("--state-out", help="state vector output path")
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("run", help="full budgeted search run")
    _add_data_args(p)
    _add_oracle_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--budget", "-B", type=int, default=15)
    p.add_argument("--patience", "-P", type=int, default=4)
    p.add_argument("--candidates", "-M", type=int, default=5)
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--assistant-mode", choices=("fallback", "external"),
                   default="fallback")
    p.add_argument("--assistant-cmd", action="append", metavar="ROLE=CMD",
                   help="external assistant command per role")
    p.add_argument("--random-select", action="store_true",
                   help="ablation: choose candidates uniformly at random")
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="baseline evaluation suites")
    _add_data_args(p)
    _add_oracle_args(p)
    p.add_argument("--suite", required=True,
                   choices=("random_recipe", "random_topk", "single_op"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--budget", "-B", type=int, default=15)
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--size", type=int, help="random_topk subset size")
    p.add_argument("--fraction", type=float, help="single_op selector fraction")
    p.add_argument("--mona-fraction", type=float,
                   help="single_op per-benchmark relevance fraction")
    p.add_argument("--tau", type=float, help="single_op semdedup threshold")
    p.add_argument("--clusters", type=int, help="single_op semdedup cluster count")
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="CSV reports from run ledgers")
    p.add_argument("ledgers", nargs="+")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
