"""Command-line surface: ingestion checks, execution, search runs, reports.

Subcommands: ingest-check, exec, run, baseline, report. Runs and baselines
write an append-only JSONL ledger: header line first, then eval and event
lines in step order. A run that completes ends with a result line, a
baseline with its last eval line, and either one that fails with an abort
line. A run also writes the best-recipe JSON and the selected-subset
manifest. Every failure is a :class:`CommandError` that ``main`` prints;
a rejected setting exits 2 with ``config rejected:`` before any ledger is
opened. Every setting, the role commands of ``--assistant-cmd ROLE=CMD``
included, comes from the command line; recipesearch reads no environment
variable. Baseline suites are recipe sources evaluated by the search's own
runtime, so their eval events match a run's. Reports are pure functions of
ledger bytes and come out as CSV files.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import shlex
import sys
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

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
    MONA_FILTER,
    RANDOM_K,
    SELECTOR_COLUMNS,
    SEMDEDUP,
    Catalog,
    OperatorSpec,
    default_catalog,
)
from .oracle import (
    COMMAND_TIMEOUT_DEFAULT,
    CommandOracle,
    EvalRequest,
    OracleError,
    SyntheticOracle,
    SyntheticOracleSpec,
    timeout_error,
    write_manifest,
)
from .pool import PoolError, load_pool, load_signals
from .recipe import (
    DEFAULT_L_MAX,
    ExecutionError,
    Recipe,
    RecipeValidationError,
    describe_recipe,
    execute_recipe,
    parse_recipe,
    recipe_to_obj,
    validate_recipe,
)
from .state import StateError, check_json_numbers, compute_state, flat_field_names, state_from_dict


SINGLE_OP_SELECTORS = (MONA_FILTER, *SELECTOR_COLUMNS, SEMDEDUP)
# Size-controlled selectors default to half retention; relevance filtering
# keeps its conventional much smaller per-benchmark fraction.
SINGLE_OP_DEFAULT_FRACTION = 0.5
SINGLE_OP_MONA_FRACTION = 0.05
SINGLE_OP_SEMDEDUP_TAU = 0.75


class CommandError(Exception):
    """``CommandError(exit_code, message)``: ``main`` prints the message on stderr."""

    def __str__(self) -> str:
        return self.args[1]


def _config_rejected(reason) -> CommandError:
    """A setting rejected before any ledger opens."""
    return CommandError(2, f"config rejected: {reason}")


def _recipe_rejected(code: int, violations: list[str]) -> CommandError:
    return CommandError(code, "\n".join(["recipe rejected:", *(f"  - {v}" for v in violations)]))


@contextmanager
def _output(directory: Path):
    """Create ``directory`` for a block that writes into it.

    An OSError while creating it or in the block ends the command with exit 1
    and ``output failed:``, naming the path that failed.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        path = exc.filename or directory
        raise CommandError(1, f"output failed: {path}: {exc.strerror or exc}") from exc


class RunLedger:
    """Append-only JSONL run ledger: header first, one JSON object per line."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class EvalRow(NamedTuple):
    """What the reports read from one eval line.

    ``step``, ``score`` and ``subset_size`` are the JSON values as parsed, so
    the tables print them as the ledger holds them (``1`` or ``1.0``).
    """

    step: int | float
    score: int | float
    subset_size: int | float
    fields: dict[str, float]  # StateVector.flat_fields() of the line's state
    operators: list[str]


def _eval_row(event: dict) -> EvalRow:
    """The row of one eval line; any exception marks the line unreadable."""
    row = EvalRow(
        event["step"], event["score"], event["subset_size"],
        state_from_dict(event["state"]).flat_fields(),
        [s["operator"] for s in event["recipe"]["steps"]],
    )
    check_json_numbers(row[:3])
    if any(type(op) is not str for op in row.operators):
        raise TypeError("eval line operator that is not a string")
    return row


def read_ledger(path: str) -> tuple[list[EvalRow], list[dict], int]:
    """Parse a ledger into eval rows, the other events, and a count of corrupt lines.

    A line is corrupt, and skipped, when it is not one JSON object, or when
    it is an eval line the reports cannot read (see :func:`_eval_row`).
    """
    rows: list[EvalRow] = []
    events: list[dict] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                if event.get("type") == "eval":
                    rows.append(_eval_row(event))
                else:
                    events.append(event)
            except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
                    ValueError):
                skipped += 1
    return rows, events, skipped


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
        "--oracle-timeout", type=float, default=COMMAND_TIMEOUT_DEFAULT,
        help="external command timeout in seconds (default: %(default)s)",
    )


def _load_data(args, prefix: str):
    """The signals of the pool; a file that fails ingestion exits 1 after ``prefix``."""
    try:
        return load_signals(args.signals, args.targets, load_pool(args.pool))
    except (PoolError, OSError) as exc:
        raise CommandError(1, f"{prefix}: {exc}") from exc


def _check_oracle_args(args) -> None:
    """Reject oracle settings that are wrong whatever the data."""
    error = timeout_error(args.oracle_timeout)
    if error is not None:
        raise _config_rejected(f"--oracle-timeout {error}")
    if args.oracle == "command" and not args.oracle_cmd:
        raise _config_rejected("--oracle command requires --oracle-cmd")
    if args.oracle != "command" and args.oracle_cmd:
        raise _config_rejected("--oracle-cmd requires --oracle command")
    if args.oracle == "command" and args.oracle_spec:
        raise _config_rejected("--oracle-spec requires --oracle synthetic")


def _build_oracle(args, signals, out_dir: Path):
    """The run's oracle; a rejected spec exits 2.

    The settings must have passed :func:`_check_oracle_args`. A command
    oracle creates ``out_dir`` and its manifest directory in it.
    """
    if args.oracle == "command":
        with _output(out_dir):
            return CommandOracle(args.oracle_cmd, str(out_dir / "manifests"),
                                 timeout=args.oracle_timeout)
    if not args.oracle_spec:
        return SyntheticOracle(SyntheticOracleSpec(family="constant", value=0.0))
    try:
        with open(args.oracle_spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = flat_field_names(signals.benchmarks)
        return SyntheticOracle(SyntheticOracleSpec.from_dict(doc, names))
    except (OSError, ValueError, RecursionError) as exc:
        raise CommandError(2, f"oracle spec rejected: {exc}") from exc


def _assistant_commands(args) -> dict[str, list[str]]:
    """Role argv from the ``--assistant-cmd ROLE=CMD`` flags, split shell-style.

    The flags are the only source of role commands; a later flag for a role
    replaces an earlier one. Unknown roles, empty commands and a ranker
    command under ``--random-select`` are rejected by ``SearchConfig.validate``.
    """
    commands: dict[str, list[str]] = {}
    for spec in args.assistant_cmd or []:
        role, _, cmd = spec.partition("=")
        if not cmd:
            raise _config_rejected(f"--assistant-cmd must look like role=command, got {spec!r}")
        try:
            commands[role] = shlex.split(cmd)
        except ValueError as exc:
            raise _config_rejected(f"--assistant-cmd {role}: {exc}") from exc
    return commands


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest_check(args) -> int:
    signals = _load_data(args, "ingest-check failed")
    print(f"pool: {len(signals.pool)} samples, {signals.pool.total_tokens} tokens")
    print(f"pool digest: {signals.pool.content_digest()}")
    print(f"signals: sae_dim {signals.sae_dim}, benchmarks {', '.join(signals.benchmarks)}")
    print(f"mean ifd {signals.pool_mean_ifd:.4f}, mean varentropy {signals.pool_mean_varentropy:.4f}")
    return 0


def _apply_seed_overrides(recipe: Recipe, seeds: list[int] | None, catalog: Catalog) -> Recipe:
    """``recipe`` with ``seeds`` set, in order, on the steps whose operator has a ``seed``."""
    stochastic = [
        (i, s.operator) for i, s in enumerate(recipe.steps)
        if "seed" in catalog.get(s.operator).params
    ]
    if not seeds:
        return recipe
    if not stochastic:
        print("warning: recipe has no stochastic steps; seed overrides ignored",
              file=sys.stderr)
        return recipe
    if len(seeds) != len(stochastic):
        names = ", ".join(f"step {i + 1} ({op})" for i, op in stochastic)
        raise _recipe_rejected(
            1, [f"{len(seeds)} seed override(s) for {len(stochastic)} stochastic step(s): {names}"]
        )
    steps = list(recipe.steps)
    for (i, _), seed in zip(stochastic, seeds):
        params = dict(steps[i].params)
        params["seed"] = int(seed)
        steps[i] = OperatorSpec(steps[i].operator, params)
    return Recipe(tuple(steps))


def cmd_exec(args) -> int:
    signals = _load_data(args, "ingestion failed")
    catalog = default_catalog(len(signals.pool))
    try:
        text = Path(args.recipe).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(1, f"ingestion failed: recipe {args.recipe}: {exc}") from exc
    try:
        recipe = parse_recipe(text, catalog, args.l_max)
    except RecipeValidationError as exc:
        raise _recipe_rejected(1, exc.violations) from exc
    recipe = _apply_seed_overrides(recipe, args.seeds, catalog)
    # --seeds overrides get the checks that seeds in the recipe file get
    violations = validate_recipe(recipe, catalog, args.l_max)
    if violations:
        raise _recipe_rejected(1, violations)
    try:
        subset = execute_recipe(recipe, signals)
        state = compute_state(subset, signals)
    except (ExecutionError, StateError) as exc:
        raise CommandError(1, f"execution aborted: {exc}") from exc
    out = Path(args.out)
    state_path = Path(args.state_out or str(out) + ".state.json")
    request = EvalRequest(
        run_id=args.run_id or "exec", step=0, recipe=recipe, subset=subset,
    )
    with _output(out.parent):
        write_manifest(str(out), request)
    with _output(state_path.parent), open(state_path, "w", encoding="utf-8") as fh:
        json.dump(state.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"selected {len(subset)} of {len(signals.pool)} samples -> {out}")
    print(f"state vector -> {state_path}")
    return 0


def _write_run_outputs(out_dir: Path, result) -> None:
    best = {
        "recipe": recipe_to_obj(result.incumbent_recipe),
        "score": result.incumbent_score,
        "step": result.incumbent_step,
        "subset_size": len(result.incumbent_subset),
    }
    request = EvalRequest(
        run_id="best", step=result.incumbent_step,
        recipe=result.incumbent_recipe, subset=result.incumbent_subset,
    )
    with open(out_dir / "best_recipe.json", "w", encoding="utf-8") as fh:
        json.dump(best, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(str(out_dir / "best_subset.jsonl"), request)


# Run failures that end a command with one line on stderr and exit code 1.
RUN_ERRORS = (OracleError, ControllerError, ExecutionError, StateError)


def _header(run_id: str, mode: str, config: dict, catalog: Catalog, signals) -> dict:
    """The first ledger line: what ran, with which settings, on which catalog and pool."""
    return {
        "type": "header", "run_id": run_id, "mode": mode, "config": config,
        "catalog_digest": catalog.digest(), "pool_digest": signals.pool.content_digest(),
    }


def _ledger_run(out_dir: Path, header: dict, body, label: str) -> int:
    """Write the ledger header, run ``body(ledger)``, and close the ledger.

    On any exception the ledger ends with an ``abort`` line. A run failure
    then exits 1, and so does an output that fails (``output failed:``);
    anything else re-raises.
    """
    with _output(out_dir):
        ledger = RunLedger(str(out_dir / "ledger.jsonl"))
    ledger.write(header)
    try:
        with _output(out_dir):
            body(ledger)
    except BaseException as exc:
        expected = isinstance(exc, RUN_ERRORS)
        reported = expected or isinstance(exc, CommandError)
        error = str(exc) if reported else f"{type(exc).__name__}: {exc}"
        ledger.write({"type": "abort", "error": error})
        if not expected:
            raise
        raise CommandError(
            1, f"{label} aborted: {exc} (partial ledger kept at {ledger.path})"
        ) from exc
    finally:
        ledger.close()
    return 0


def cmd_run(args) -> int:
    config = SearchConfig(
        budget=args.budget,
        patience=args.patience,
        candidates_per_step=args.candidates,
        l_max=args.l_max,
        master_seed=args.master_seed,
        assistant_commands=_assistant_commands(args),
        random_select=args.random_select,
        run_id=args.run_id,
    )
    try:
        config.validate()
    except ControllerError as exc:
        raise _config_rejected(exc) from exc
    _check_oracle_args(args)
    signals = _load_data(args, "ingestion failed")
    catalog = default_catalog(len(signals.pool))
    out_dir = Path(args.out_dir)
    oracle = _build_oracle(args, signals, out_dir)
    with _output(out_dir):
        (out_dir / "catalog.json").write_text(catalog.to_json() + "\n", encoding="utf-8")
    header = _header(config.resolved_run_id(), "search", config.to_dict(), catalog, signals)

    def body(ledger: RunLedger) -> None:
        result = run_search(config, signals.pool, signals, oracle, catalog=catalog,
                            sink=ledger.write)
        ledger.write({
            "type": "result",
            "incumbent_step": result.incumbent_step,
            "score": result.incumbent_score,
            "recipe": recipe_to_obj(result.incumbent_recipe),
            "subset_size": len(result.incumbent_subset),
        })
        _write_run_outputs(out_dir, result)
        print(f"incumbent score {result.incumbent_score:.6f} at step {result.incumbent_step}")
        print(f"incumbent recipe: {describe_recipe(result.incumbent_recipe)}")
        print(f"artifacts in {out_dir}")

    return _ledger_run(out_dir, header, body, "run")


def _default(value, fallback):
    return fallback if value is None else value


def _suite_recipes(args, catalog: Catalog, rng: np.random.Generator) -> list[Recipe]:
    """The fixed recipes of the random_topk and single_op suites, in order.

    random_topk gives ``budget`` recipes and single_op one per selector;
    random_recipe draws its recipes during the run and has none here.
    """
    if args.suite == "random_recipe":
        return []
    if args.suite == "random_topk":
        k = _default(args.size, max(1, catalog.pool_size // 2))
        seed = catalog.get(RANDOM_K).params["seed"]
        return [Recipe((OperatorSpec(RANDOM_K, {"k": k, "seed": seed.sample(rng)}),))
                for _ in range(args.budget)]
    recipes = []
    for selector in SINGLE_OP_SELECTORS:
        if selector == SEMDEDUP:
            params = {
                "n_clusters": _default(args.clusters, max(1, min(catalog.pool_size // 64, 32))),
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
    for flag, value in (("--budget", args.budget), ("--l-max", args.l_max)):
        if value < 1:
            raise _config_rejected(f"{flag} must be >= 1, got {value}")
    if args.master_seed < 0:
        raise _config_rejected(f"--master-seed must be >= 0, got {args.master_seed}")
    _check_oracle_args(args)
    signals = _load_data(args, "ingestion failed")
    catalog = default_catalog(len(signals.pool))
    rng = role_rng(args.master_seed, 0, "baseline")
    recipes = _suite_recipes(args, catalog, rng)
    for recipe in recipes:
        violations = validate_recipe(recipe, catalog, args.l_max)
        if violations:
            raise _recipe_rejected(2, violations)
    out_dir = Path(args.out_dir)
    oracle = _build_oracle(args, signals, out_dir)
    run_id = args.run_id or f"baseline-{args.suite}-seed{args.master_seed}"
    header = _header(run_id, f"baseline:{args.suite}", {
        "suite": args.suite, "budget": args.budget,
        "master_seed": args.master_seed, "l_max": args.l_max,
    }, catalog, signals)
    config = SearchConfig(
        budget=args.budget, l_max=args.l_max, master_seed=args.master_seed, run_id=run_id,
    )

    def body(ledger: RunLedger) -> None:
        rt = _Runtime(config, signals, oracle, catalog, ledger.write)
        for cand in _baseline_candidates(args, rt, recipes, rng):
            rt.evaluate(cand, is_warmup=False)
        best = rt.incumbent()
        print(f"{args.suite}: {len(rt.records)} evaluations, best score {best.score:.6f} "
              f"at step {best.step}")

    return _ledger_run(out_dir, header, body, "baseline")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

GAP_AREA_NOTE = (
    "gap_area: artifact-defined reconstruction = sum over the window of "
    "(best_so_far(t) - score(t))"
)


def _write_csv(path: Path, header: list[str], rows, note: str | None = None) -> None:
    """One report table; ``note`` goes first, as a ``#`` line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if note:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_report(args) -> int:
    ledgers = []
    for path in args.ledgers:
        try:
            rows, events, skipped = read_ledger(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise CommandError(1, f"ingestion failed: ledger {path}: {exc}") from exc
        if skipped:
            print(f"warning: {path}: skipped {skipped} corrupt ledger line(s)", file=sys.stderr)
        ledgers.append((path, rows, events))

    curves, scatter, motifs, correlations, comparison = [], [], [], [], []
    for path, rows, events in ledgers:
        scores = [r.score for r in rows]
        best = list(accumulate(scores, max, initial=-math.inf))[1:]
        curves += ([path, r.step, r.score, b] for r, b in zip(rows, best))
        scatter += ([path, r.step, r.subset_size, r.fields["retain_ratio"], r.score]
                    for r in rows)
        _, pairs = tertile_counts([(r.score, r.step, r.operators) for r in rows])
        motifs += sorted(
            ([path, f"{a}->{b}", top, bottom, top - bottom]
             for (a, b), (top, bottom) in pairs.items()),
            key=lambda t: (-t[4], t[1]),
        )
        correlations += ([path, name, rho] for name, rho in
                         state_correlations([r.fields for r in rows], scores))
        # the gap window starts after warmup, or at the last eval of a shorter ledger
        start = min(WARMUP_COUNT, max(len(rows) - 1, 0))
        gap_area = 0.0
        for b, s in zip(best[start:], scores[start:]):
            # a running sum: sum() of floats is compensated from Python 3.12 on
            gap_area += max(0.0, b - s)
        comparison.append([
            path, len(rows), max(scores, default=math.nan),
            float(np.mean(scores)) if scores else math.nan,
            max(scores[WARMUP_COUNT:], default=math.nan), gap_area,
            sum(e.get("type") == "reseed" for e in events),
            sum(e.get("type") == "assistant_failure" for e in events),
        ])

    out_dir = Path(args.out_dir)
    with _output(out_dir):
        _write_csv(out_dir / "curves.csv", ["ledger", "step", "score", "best_so_far"], curves)
        _write_csv(out_dir / "scatter.csv",
                   ["ledger", "step", "subset_size", "retain_ratio", "score"], scatter)
        _write_csv(out_dir / "motifs.csv",
                   ["ledger", "pair", "top_count", "bottom_count", "delta"], motifs)
        _write_csv(out_dir / "state_correlations.csv", ["ledger", "field", "spearman"],
                   correlations)
        _write_csv(out_dir / "comparison.csv", [
            "ledger", "records", "best", "mean", "best_post_warmup",
            "gap_area_post_warmup", "reseeds", "assistant_failures",
        ], comparison, note=GAP_AREA_NOTE)
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
    p.add_argument("--l-max", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("run", help="full budgeted search run")
    _add_data_args(p)
    _add_oracle_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--budget", "-B", type=int, default=SearchConfig.budget)
    p.add_argument("--patience", "-P", type=int, default=SearchConfig.patience)
    p.add_argument("--candidates", "-M", type=int, default=SearchConfig.candidates_per_step)
    p.add_argument("--l-max", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--master-seed", type=int, default=SearchConfig.master_seed)
    p.add_argument("--assistant-cmd", action="append", metavar="ROLE=CMD",
                   help="external command for one role; roles without one use the fallback")
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
    p.add_argument("--budget", "-B", type=int, default=SearchConfig.budget)
    p.add_argument("--l-max", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--master-seed", type=int, default=SearchConfig.master_seed)
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
    try:
        return args.func(args)
    except CommandError as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
