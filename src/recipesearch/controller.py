"""The budgeted search loop: warmup probes, local edits, ranking, reseeding.

One run spends exactly ``budget`` full evaluations: three warmup probes
spanning low/medium/high retention, then one evaluation per search step. Each
step summarizes the history into guidance, proposes sibling recipes around
the current seed anchor, materializes them (execute + state, never the
oracle), scores them with the GP surrogate, and lets the ranker pick exactly
one for full evaluation. The incumbent and the seed anchor are tracked
separately; the anchor moves only when the incumbent has stagnated for
``patience`` consecutive evaluations.

The Summarizer/Proposer/Ranker/Reseeder roles are ports: deterministic
fallback policies are built in, and each role can be delegated to an external
command (prompt on stdin, JSON on stdout) that degrades back to the fallback
on any failure.
"""

from __future__ import annotations

import json
import logging
import re
import subprocess
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import stats

from .operators import MIX, Catalog, OperatorSpec, Subset, default_catalog
from .oracle import EvalCache, EvalRequest
from .pool import CanonicalPool, SignalTable
from .recipe import (
    DEFAULT_L_MAX,
    ExecutionError,
    ProposeError,
    Recipe,
    RecipeValidationError,
    describe_recipe,
    encode_recipe,
    execute_recipe,
    propose_local_edits,
    recipe_from_obj,
    recipe_to_obj,
    sample_params,
    sample_random_recipe,
    validate_recipe,
)
from .state import StateError, StateVector, compute_state
from .surrogate import fit_gp, predict_gp

logger = logging.getLogger(__name__)

WARMUP_COUNT = 3
WARMUP_BIN_BOUNDS = (1.0 / 3.0, 2.0 / 3.0)
WARMUP_RESAMPLE_CAP = 500
# UCB exploration weight of the fallback ranker, and the retain ratio below
# which it demotes a candidate as degenerate.
KAPPA = 1.0
RETAIN_FLOOR = 0.02
ASSISTANT_RETRIES = 2
ASSISTANT_ROLES = ("summarizer", "proposer", "ranker", "reseeder")

_ROLE_STREAM = {
    "warmup": 0, "propose": 1, "rank": 2, "reseed": 3, "rescue": 4, "baseline": 5,
}


class ControllerError(RuntimeError):
    """Unrecoverable search failure (not an oracle failure)."""


def role_rng(master_seed: int, step: int, role: str) -> np.random.Generator:
    """Independent stream per (seed, step, role) so draws never interleave."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, step, _ROLE_STREAM[role]))
    )


def role_seed(master_seed: int, step: int, role: str, extra: int = 0) -> int:
    seq = np.random.SeedSequence((master_seed, step, _ROLE_STREAM[role], extra))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


@dataclass
class SearchConfig:
    budget: int = 15
    patience: int = 4
    candidates_per_step: int = 5
    l_max: int = DEFAULT_L_MAX
    master_seed: int = 0
    assistant_mode: str = "fallback"            # "fallback" | "external"
    assistant_commands: dict[str, list[str]] = field(default_factory=dict)
    assistant_timeout: float = 120.0
    random_select: bool = False                 # ablation: uniform candidate choice
    run_id: str | None = None

    def validate(self) -> None:
        if self.budget <= WARMUP_COUNT:
            raise ControllerError(
                f"budget must exceed warmup count {WARMUP_COUNT}, got {self.budget}"
            )
        if self.l_max < 1:
            raise ControllerError(f"l_max must be >= 1, got {self.l_max}")
        if self.patience < 1:
            raise ControllerError(f"patience must be >= 1, got {self.patience}")
        if self.candidates_per_step < 1:
            raise ControllerError(
                f"candidates_per_step must be >= 1, got {self.candidates_per_step}"
            )
        if self.assistant_mode not in ("fallback", "external"):
            raise ControllerError(f"unknown assistant mode {self.assistant_mode!r}")

    def resolved_run_id(self) -> str:
        return self.run_id if self.run_id else f"run-seed{self.master_seed}"

    def to_dict(self) -> dict:
        """The ledger header's config, with the fixed warmup and ranking constants."""
        return {
            "budget": self.budget,
            "patience": self.patience,
            "candidates_per_step": self.candidates_per_step,
            "l_max": self.l_max,
            "master_seed": self.master_seed,
            "warmup_bin_bounds": list(WARMUP_BIN_BOUNDS),
            "assistant_mode": self.assistant_mode,
            "assistant_commands": {k: list(v) for k, v in self.assistant_commands.items()},
            "kappa": KAPPA,
            "retain_floor": RETAIN_FLOOR,
            "random_select": self.random_select,
            "run_id": self.resolved_run_id(),
        }


@dataclass(frozen=True)
class EvalRecord:
    step: int
    recipe: Recipe
    encoding: np.ndarray
    state: StateVector
    score: float
    per_benchmark: dict[str, float] | None
    subset_size: int
    subset_hash: str
    seed_phase: int
    is_warmup: bool
    cache_hit: bool = False
    duration_s: float | None = None

    def to_event(self) -> dict:
        event = {
            "type": "eval",
            "step": self.step,
            "is_warmup": self.is_warmup,
            "seed_phase": self.seed_phase,
            "recipe": recipe_to_obj(self.recipe),
            "encoding": [float(v) for v in self.encoding],
            "state": self.state.to_dict(),
            "score": float(self.score),
            "per_benchmark": self.per_benchmark,
            "subset_size": self.subset_size,
            "subset_hash": self.subset_hash,
            "cache_hit": self.cache_hit,
        }
        if self.duration_s is not None:
            event["duration_s"] = self.duration_s
        return event


class History:
    """Append-only evaluation ledger plus subset storage for mix resolution."""

    def __init__(self) -> None:
        self.records: list[EvalRecord] = []
        self.subsets: dict[int, Subset] = {}
        self.incumbent_index: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: EvalRecord, subset: Subset) -> bool:
        """Append a record; True iff it strictly improves the incumbent."""
        self.records.append(record)
        self.subsets[record.step] = subset
        if self.incumbent_index is None:
            self.incumbent_index = 0
            return True
        if record.score > self.records[self.incumbent_index].score:
            self.incumbent_index = len(self.records) - 1
            return True
        return False

    def incumbent(self) -> EvalRecord:
        if self.incumbent_index is None:
            raise ControllerError("no evaluations recorded yet")
        return self.records[self.incumbent_index]

    def resolve_source(self, ref: str) -> Subset | None:
        """Mix source grammar: "incumbent" or "eval:<t>"."""
        if ref == "incumbent":
            if self.incumbent_index is None:
                return None
            return self.subsets.get(self.records[self.incumbent_index].step)
        if ref.startswith("eval:"):
            try:
                step = int(ref[5:])
            except ValueError:
                return None
            return self.subsets.get(step)
        return None


@dataclass(frozen=True)
class Guidance:
    findings: list[str]
    op_bias: dict[str, float] = field(default_factory=dict)
    best_band: tuple[float, float] | None = None
    source: str = "fallback"

    def to_event(self, step: int) -> dict:
        return {
            "type": "guidance",
            "step": step,
            "source": self.source,
            "findings": list(self.findings),
            "op_bias": {k: float(v) for k, v in sorted(self.op_bias.items())},
            "best_band": list(self.best_band) if self.best_band else None,
        }

    def rendered(self) -> str:
        return "\n".join(f"{i}. {f}" for i, f in enumerate(self.findings, start=1))


@dataclass
class Candidate:
    recipe: Recipe
    subset: Subset
    state: StateVector
    encoding: np.ndarray
    mu: float = 0.0
    sigma: float = 0.0

    @property
    def retain_ratio(self) -> float:
        return self.state.retain_ratio


@dataclass
class SearchResult:
    incumbent_recipe: Recipe
    incumbent_ids: list[str]
    incumbent_score: float
    incumbent_step: int
    records: list[EvalRecord]


# ---------------------------------------------------------------------------
# Fallback policies
# ---------------------------------------------------------------------------

def fallback_summarize(history: list[EvalRecord], catalog: Catalog) -> Guidance:
    """Descriptive findings plus a machine-readable operator bias table.

    Findings cover per-operator mean-score deltas (present vs absent), the
    strongest state-field/score rank correlations, and the best retain-ratio
    band. Capped at five findings.
    """
    if not history:
        raise ControllerError("summarizer requires a nonempty history")
    if len(history) == 1:
        return Guidance(findings=["insufficient evidence: only one evaluation so far"])
    scores = np.array([r.score for r in history])
    findings: list[str] = []
    op_bias: dict[str, float] = {}
    deltas: list[tuple[str, float, int, int]] = []
    for name in catalog.names():
        present = np.array([name in r.recipe.operators() for r in history])
        if present.all() or not present.any():
            continue
        delta = float(scores[present].mean() - scores[~present].mean())
        op_bias[name] = delta
        deltas.append((name, delta, int(present.sum()), int((~present).sum())))
    deltas.sort(key=lambda d: (-abs(d[1]), d[0]))
    for name, delta, n_in, n_out in deltas[:2]:
        direction = "raises" if delta >= 0 else "lowers"
        findings.append(
            f"operator {name} {direction} mean score by {delta:+.4f} "
            f"(present in {n_in} vs absent in {n_out} evaluations)"
        )

    corrs = state_correlations([r.state.flat_fields() for r in history], scores)
    for fname, rho in corrs[:2]:
        findings.append(f"state field {fname} has Spearman {rho:+.3f} with score")

    bounds = (0.0,) + WARMUP_BIN_BOUNDS + (1.0,)
    best_band = None
    best_mean = -np.inf
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = np.array([lo < r.state.retain_ratio <= hi for r in history])
        if mask.any() and scores[mask].mean() > best_mean:
            best_mean = float(scores[mask].mean())
            best_band = (lo, hi)
    if best_band is not None:
        findings.append(
            f"retain-ratio band ({best_band[0]:.3f}, {best_band[1]:.3f}] scored best "
            f"(mean {best_mean:.4f})"
        )
    return Guidance(findings=findings[:5], op_bias=op_bias, best_band=best_band)


def fallback_rank(candidates: list[Candidate], history: list[EvalRecord]) -> list[int]:
    """Full ranking by mu + KAPPA * sigma; degenerate subsets go to the tail.

    Candidates whose retain ratio is below RETAIN_FLOOR are demoted below every
    non-degenerate candidate regardless of acquisition value. Ties break by
    candidate index.
    """
    if not candidates:
        raise ControllerError("ranker requires at least one candidate")
    keyed = [
        (c.retain_ratio < RETAIN_FLOOR, -(c.mu + KAPPA * c.sigma), i)
        for i, c in enumerate(candidates)
    ]
    keyed.sort()
    return [i for _, _, i in keyed]


def state_correlations(
    fields: list[dict[str, float]], scores,
) -> list[tuple[str, float]]:
    """Spearman rho of each varying flat state field with score, strongest first.

    ``fields`` holds one ``StateVector.flat_fields()`` mapping per evaluation.
    Needs three evaluations and non-constant scores; fields that never vary
    or give a non-finite rho are left out. Ties in |rho| go to the field name.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) < 3 or scores.std() == 0:
        return []
    out: list[tuple[str, float]] = []
    for name in sorted(fields[0]):
        values = np.array([f[name] for f in fields], dtype=np.float64)
        if values.max() == values.min():
            continue
        rho = stats.spearmanr(values, scores).statistic
        if np.isfinite(rho):
            out.append((name, float(rho)))
    out.sort(key=lambda c: (-abs(c[1]), c[0]))
    return out


def tertile_counts(
    evals: list[tuple[float, int, list[str]]],
) -> tuple[dict[str, list[int]], dict[tuple[str, str], list[int]]]:
    """[top, bottom] score-tertile presence counts per operator and adjacent pair.

    ``evals`` holds (score, step, operator sequence) per evaluation. Equal
    scores rank the earlier step higher. A recipe counts once per operator
    and pair it contains, however often they repeat.
    """
    ordered = sorted(evals, key=lambda e: (-e[0], e[1]))
    cut = max(1, len(ordered) // 3)
    ops: dict[str, list[int]] = {}
    pairs: dict[tuple[str, str], list[int]] = {}
    for group, slot in ((ordered[:cut], 0), (ordered[-cut:], 1)):
        for _, _, seq in group:
            for op in set(seq):
                ops.setdefault(op, [0, 0])[slot] += 1
            for pair in set(zip(seq[:-1], seq[1:])):
                pairs.setdefault(pair, [0, 0])[slot] += 1
    return ops, pairs


def motif_signals(
    history: list[EvalRecord],
) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Top-minus-bottom tertile presence counts for operators and adjacent pairs."""
    ops, pairs = tertile_counts([(r.score, r.step, r.recipe.operators()) for r in history])
    return (
        {op: top - bottom for op, (top, bottom) in ops.items()},
        {pair: top - bottom for pair, (top, bottom) in pairs.items()},
    )


def _best_params_for(history: list[EvalRecord], op: str) -> dict | None:
    """Parameters of the operator's last occurrence in its best-scoring recipe."""
    best: EvalRecord | None = None
    for rec in history:
        if op in rec.recipe.operators():
            if best is None or rec.score > best.score:
                best = rec
    if best is None:
        return None
    params = None
    for step in best.recipe.steps:
        if step.operator == op:
            params = dict(step.params)
    return params


def fallback_reseed(
    history: list[EvalRecord],
    catalog: Catalog,
    rng: np.random.Generator,
    l_max: int = DEFAULT_L_MAX,
) -> Recipe:
    """Sample a 1-3 step restart motif proportional to positive tertile signals.

    Positive operator and adjacent-pair signals (top-tertile minus
    bottom-tertile presence counts) weight a draw over motif stubs; a drawn
    pair may extend by one chained pair. Parameters come from the operator's
    best-scoring historical occurrence. With no positive signal the reseed is
    a uniform random valid recipe. Never returns a lone mix step.
    """
    if not history:
        raise ControllerError("reseeder requires a nonempty history")
    op_signal, pair_signal = motif_signals(history)
    items: list[tuple[float, tuple[str, ...]]] = []
    for op, sig in sorted(op_signal.items()):
        if sig > 0:
            items.append((float(sig), (op,)))
    for pair, sig in sorted(pair_signal.items()):
        if sig > 0:
            items.append((float(sig), pair))
    for _ in range(10):
        if not items:
            break
        weights = np.array([w for w, _ in items])
        pick = int(rng.choice(len(items), p=weights / weights.sum()))
        motif = list(items[pick][1])
        if len(motif) == 2 and rng.random() < 0.5:
            tails = [
                (w, p) for w, p in items
                if len(p) == 2 and p[0] == motif[-1]
                and not (p[1] == MIX and MIX in motif)
            ]
            if tails:
                tw = np.array([w for w, _ in tails])
                motif.append(tails[int(rng.choice(len(tails), p=tw / tw.sum()))][1][1])
        motif = motif[: max(1, l_max)]
        if motif == [MIX]:
            continue
        steps = []
        for op in motif:
            params = _best_params_for(history, op)
            if params is None:
                params = sample_params(op, catalog, rng)
            steps.append(OperatorSpec(op, params))
        candidate = Recipe(tuple(steps))
        if not validate_recipe(candidate, catalog, l_max):
            return candidate
    return sample_random_recipe(catalog, rng, l_max)


# ---------------------------------------------------------------------------
# External assistant port
# ---------------------------------------------------------------------------

def load_template(role: str) -> str:
    path = resources.files("recipesearch").joinpath("templates", f"{role}.txt")
    return path.read_text(encoding="utf-8")


def render_template(template: str, mapping: dict[str, str]) -> str:
    """Substitute {name} placeholders without disturbing literal braces."""
    out = template
    for key, value in mapping.items():
        out = out.replace("{" + key + "}", str(value))
    return out


def strip_json_payload(text: str) -> str:
    """Tolerant extraction: drop markdown fences, keep the JSON body."""
    body = text.strip()
    fence = re.search(r"```(?:json)?\s*(.*?)```", body, flags=re.DOTALL)
    if fence:
        body = fence.group(1).strip()
    if body and body[0] not in "[{":
        start = min(
            (i for i in (body.find("["), body.find("{")) if i >= 0), default=-1
        )
        if start >= 0:
            end = max(body.rfind("]"), body.rfind("}"))
            if end > start:
                body = body[start : end + 1]
    return body


class AssistantPort:
    """Runs one external command per role with retries and fallback.

    Protocol: rendered prompt on stdin, role-typed JSON on stdout, nonzero
    exit means failure. Failures are logged as ledger events and never fatal.
    """

    def __init__(
        self,
        commands: dict[str, list[str]],
        timeout: float,
        emit,
        catalog: Catalog,
        l_max: int,
    ):
        self.commands = {k: list(v) for k, v in commands.items()}
        self.timeout = timeout
        self.emit = emit
        self.catalog = catalog
        self.l_max = l_max
        self.templates = {role: load_template(role) for role in ASSISTANT_ROLES}

    def _invoke_once(self, command: list[str], prompt: str) -> tuple[str | None, str]:
        try:
            proc = subprocess.run(
                command,
                input=prompt,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except FileNotFoundError:
            return None, f"command not found: {command[0]}"
        except subprocess.TimeoutExpired:
            return None, f"timeout after {self.timeout}s"
        if proc.returncode != 0:
            return None, f"exit code {proc.returncode}"
        if not proc.stdout.strip():
            return None, "empty output"
        return proc.stdout, ""

    def _call(self, role: str, context: dict[str, str], step: int, parse):
        """Invoke + parse with retries; None defers the call to the fallback."""
        command = self.commands.get(role)
        if not command:
            return None
        prompt = render_template(self.templates[role], context)
        for attempt in range(1 + ASSISTANT_RETRIES):
            out, error = self._invoke_once(command, prompt)
            if out is None:
                self._failure(role, step, attempt, error)
                if error.startswith("command not found"):
                    return None  # retrying a missing binary is pointless
                continue
            parsed, error = parse(out)
            if parsed is not None:
                return parsed
            self._failure(role, step, attempt, error)
        return None

    def _failure(self, role: str, step: int, attempt: int, error: str) -> None:
        logger.warning("assistant %s failed (step %d, attempt %d): %s",
                       role, step, attempt, error)
        self.emit({
            "type": "assistant_failure",
            "step": step,
            "role": role,
            "attempt": attempt,
            "error": error,
        })

    def summarize(self, context: dict[str, str], step: int) -> Guidance | None:
        def parse(out: str):
            lines = [ln.strip() for ln in out.strip().splitlines() if ln.strip()]
            if not lines:
                return None, "no findings"
            return Guidance(findings=lines[:5], source="external"), ""

        return self._call("summarizer", context, step, parse)

    def propose(self, context: dict[str, str], step: int) -> list[Recipe] | None:
        def parse(out: str):
            try:
                doc = json.loads(strip_json_payload(out))
            except (json.JSONDecodeError, RecursionError):
                return None, "unparsable JSON"
            if isinstance(doc, dict):
                doc = [doc]
            if not isinstance(doc, list):
                return None, "not a JSON array"
            recipes = []
            for item in doc:
                try:
                    recipes.append(recipe_from_obj(item, self.catalog, self.l_max))
                except RecipeValidationError as exc:
                    logger.info("dropping invalid proposed recipe: %s", exc)
            if not recipes:
                return None, "no valid recipes"
            return recipes, ""

        return self._call("proposer", context, step, parse)

    def rank(self, context: dict[str, str], step: int, n: int) -> tuple[list[int], dict] | None:
        def parse(out: str):
            try:
                doc = json.loads(strip_json_payload(out))
                ranking = [int(i) for i in doc["ranking"]]
            except (KeyError, TypeError, ValueError, RecursionError):
                return None, "missing or invalid ranking"
            if sorted(ranking) != list(range(n)):
                return None, f"ranking is not a permutation of 0..{n - 1}"
            meta = {
                "confidence": doc.get("confidence"),
                "rationale": doc.get("rationale"),
                "eval_rationale": doc.get("eval_rationale"),
            }
            return (ranking, meta), ""

        return self._call("ranker", context, step, parse)

    def reseed(self, context: dict[str, str], step: int) -> Recipe | None:
        def parse(out: str):
            try:
                doc = json.loads(strip_json_payload(out))
            except (json.JSONDecodeError, RecursionError):
                return None, "unparsable JSON"
            if not isinstance(doc, list):
                return None, "not a step array"
            try:
                recipe = recipe_from_obj({"steps": doc}, self.catalog, self.l_max)
            except RecipeValidationError as exc:
                return None, f"invalid motif: {exc}"
            if len(recipe) > 3 or recipe.operators() == [MIX]:
                return None, "motif out of bounds"
            return recipe, ""

        return self._call("reseeder", context, step, parse)


# ---------------------------------------------------------------------------
# Context rendering for assistant prompts
# ---------------------------------------------------------------------------

def history_table(records: list[EvalRecord]) -> str:
    lines = ["step | warmup | size | retain | score | recipe"]
    for r in records:
        lines.append(
            f"{r.step:4d} | {'yes' if r.is_warmup else ' no'} | {r.subset_size:6d} | "
            f"{r.state.retain_ratio:6.3f} | {r.score:10.4f} | {describe_recipe(r.recipe)}"
        )
    return "\n".join(lines)


def candidate_table(candidates: list[Candidate]) -> str:
    lines = [
        "idx | mu | sigma | retain | score_mean | drift | recipe",
    ]
    for i, c in enumerate(candidates):
        lines.append(
            f"{i:3d} | {c.mu:9.4f} | {c.sigma:7.4f} | {c.retain_ratio:6.3f} | "
            f"{c.state.score_mean:9.4f} | {c.state.distribution_drift:6.4f} | "
            f"{describe_recipe(c.recipe)}"
        )
    return "\n".join(lines)


def _state_section(state: StateVector) -> str:
    return json.dumps(state.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------

class _Runtime:
    """Shared run machinery: evaluation, caching, event emission."""

    def __init__(self, config, pool, signals, oracle, catalog, sink):
        self.config = config
        self.pool = pool
        self.signals = signals
        self.oracle = oracle
        self.catalog = catalog
        self.sink = sink or (lambda event: None)
        self.history = History()
        self.cache = EvalCache()
        self.seed_phase = 1

    def emit(self, event: dict) -> None:
        self.sink(event)

    def materialize(self, recipe: Recipe) -> Candidate:
        """Execute + summarize a candidate, never the oracle.

        Raises ExecutionError or StateError when the candidate aborts.
        """
        subset = execute_recipe(recipe, self.pool, self.signals, self.history)
        return Candidate(
            recipe=recipe,
            subset=subset,
            state=compute_state(subset, self.pool, self.signals),
            encoding=encode_recipe(recipe, self.catalog),
        )

    def try_materialize(self, recipe: Recipe) -> Candidate | None:
        """``materialize``, or None when the candidate aborts."""
        try:
            return self.materialize(recipe)
        except (ExecutionError, StateError) as exc:
            logger.debug("candidate aborted: %s (%s)", describe_recipe(recipe), exc)
            return None

    def draw_candidate(self, rng: np.random.Generator, cap: int) -> Candidate | None:
        """The first of up to ``cap`` random recipes that materializes, else None."""
        for _ in range(cap):
            cand = self.try_materialize(
                sample_random_recipe(self.catalog, rng, self.config.l_max)
            )
            if cand is not None:
                return cand
        return None

    def evaluate(self, step: int, cand: Candidate, is_warmup: bool) -> tuple[EvalRecord, bool]:
        """One budget unit: cache-aware oracle evaluation plus ledger append."""
        subset_hash = cand.subset.content_hash()
        outcome = self.cache.lookup(subset_hash)
        if outcome is None:
            request = EvalRequest(
                run_id=self.config.resolved_run_id(),
                step=step,
                recipe=cand.recipe,
                subset=cand.subset,
            )
            outcome = self.oracle.evaluate(request, cand.state)
            self.cache.store(subset_hash, outcome)
        record = EvalRecord(
            step=step,
            recipe=cand.recipe,
            encoding=cand.encoding,
            state=cand.state,
            score=float(outcome.score),
            per_benchmark=outcome.per_benchmark,
            subset_size=len(cand.subset),
            subset_hash=subset_hash,
            seed_phase=self.seed_phase,
            is_warmup=is_warmup,
            cache_hit=outcome.cache_hit,
            duration_s=outcome.duration_s,
        )
        improved = self.history.append(record, cand.subset)
        self.emit(record.to_event())
        return record, improved


def _warmup_bin(ratio: float) -> int:
    if ratio <= WARMUP_BIN_BOUNDS[0]:
        return 0
    if ratio <= WARMUP_BIN_BOUNDS[1]:
        return 1
    return 2


def _interval_distance(ratio: float, lo: float, hi: float) -> float:
    return max(lo - ratio, ratio - hi, 0.0)


def _run_warmup(rt: _Runtime) -> tuple[list[EvalRecord], Recipe]:
    """Probe low/medium/high retention bins, then evaluate the three probes.

    Probes are drawn from one master-seeded stream, bin by bin; a bin that
    stays empty after the resample cap relaxes to the nearest-ratio draw seen
    for it. The seed anchor is the best-scoring probe, ties to the earliest.
    """
    config = rt.config
    rng = role_rng(config.master_seed, 0, "warmup")
    b1, b2 = WARMUP_BIN_BOUNDS
    bin_edges = [(0.0, b1), (b1, b2), (b2, 1.0)]
    probes: list[Candidate] = []
    for bin_idx, (lo, hi) in enumerate(bin_edges):
        found: Candidate | None = None
        nearest: tuple[float, Candidate] | None = None
        for _ in range(WARMUP_RESAMPLE_CAP):
            recipe = sample_random_recipe(rt.catalog, rng, config.l_max)
            cand = rt.try_materialize(recipe)
            if cand is None:
                continue
            ratio = cand.retain_ratio
            if _warmup_bin(ratio) == bin_idx:
                found = cand
                break
            dist = _interval_distance(ratio, lo, hi)
            if nearest is None or dist < nearest[0]:
                nearest = (dist, cand)
        if found is None:
            if nearest is None:
                raise ControllerError(
                    f"warmup bin {bin_idx} unfillable after {WARMUP_RESAMPLE_CAP} draws"
                )
            found = nearest[1]
        probes.append(found)

    records = []
    for i, cand in enumerate(probes, start=1):
        record, _ = rt.evaluate(i, cand, is_warmup=True)
        records.append(record)
    best = max(records, key=lambda r: (r.score, -r.step))
    return records, best.recipe


def run_warmup(
    config: SearchConfig,
    pool: CanonicalPool,
    signals: SignalTable,
    oracle,
    catalog: Catalog | None = None,
    sink=None,
) -> tuple[list[EvalRecord], Recipe]:
    """Standalone warmup: three binned probes and the initial seed anchor."""
    config.validate()
    catalog = catalog or default_catalog(len(pool))
    rt = _Runtime(config, pool, signals, oracle, catalog, sink)
    return _run_warmup(rt)


def _bias_to_insert_weights(op_bias: dict[str, float], catalog: Catalog) -> dict[str, float]:
    """Map score deltas to insert weights in [1, 2]; empty bias means uniform."""
    positive = {k: v for k, v in op_bias.items() if v > 0}
    if not positive:
        return {}
    top = max(positive.values())
    return {
        name: 1.0 + max(op_bias.get(name, 0.0), 0.0) / top for name in catalog.names()
    }


def _fallback_propose(
    rt: _Runtime, step: int, anchor: Recipe, guidance: Guidance
) -> list[Candidate]:
    config = rt.config
    m = config.candidates_per_step
    cap = 3 * m
    weights = _bias_to_insert_weights(guidance.op_bias, rt.catalog)
    valid: list[Candidate] = []
    attempts = 0
    batch_round = 0
    while len(valid) < m and attempts < cap:
        need = m - len(valid)
        seed = role_seed(config.master_seed, step, "propose", batch_round)
        try:
            recipes = propose_local_edits(
                anchor, seed, need, rt.catalog, config.l_max,
                insert_weights=weights or None,
            )
        except ProposeError:
            break
        for recipe in recipes:
            attempts += 1
            cand = rt.try_materialize(recipe)
            if cand is not None:
                valid.append(cand)
            if len(valid) >= m or attempts >= cap:
                break
        batch_round += 1
    if not valid:
        cand = rt.draw_candidate(role_rng(config.master_seed, step, "rescue"), cap)
        if cand is None:
            raise ControllerError(f"no executable candidate found at step {step}")
        valid.append(cand)
    return valid


def _external_contexts(
    rt: _Runtime, step: int, anchor: Recipe, guidance: Guidance | None,
    candidates: list[Candidate] | None,
) -> dict[str, str]:
    config = rt.config
    records = rt.history.records
    anchor_record = next(
        (r for r in reversed(records) if r.recipe == anchor), None
    )
    ctx = {
        "pool_size": str(len(rt.pool)),
        "history_table": history_table(records),
        "operator_catalog": rt.catalog.to_json(),
        "n_candidates": str(config.candidates_per_step),
        "l_max": str(config.l_max),
        "current_recipe": describe_recipe(anchor),
        "current_score": f"{anchor_record.score:.4f}" if anchor_record else "not yet evaluated",
        "state_section": _state_section(anchor_record.state) if anchor_record else "unavailable",
        "anchor_section": describe_recipe(anchor),
        "insights_section": guidance.rendered() if guidance else "none yet",
        "mix_note": (
            "The mix operator unions the current subset with a previously "
            "evaluated one (source: \"incumbent\" or \"eval:<t>\")."
        ),
        "n_evaluations": str(len(records)),
        "budget_total": str(config.budget),
        "budget_remaining": str(config.budget - len(records)),
        "best_score": f"{rt.history.incumbent().score:.4f}" if records else "n/a",
        "phase": "explore" if len(records) < (config.budget + WARMUP_COUNT) // 2 else "exploit",
    }
    if candidates is not None:
        ctx["candidate_table"] = candidate_table(candidates)
    op_sig, pair_sig = motif_signals(records) if records else ({}, {})
    ctx["positive_operator_signals"] = json.dumps(
        {k: v for k, v in sorted(op_sig.items()) if v > 0}, sort_keys=True
    )
    ctx["positive_pair_signals"] = json.dumps(
        {f"{a}->{b}": v for (a, b), v in sorted(pair_sig.items()) if v > 0},
        sort_keys=True,
    )
    top = sorted(records, key=lambda r: -r.score)[:3]
    ctx["successful_examples"] = json.dumps(
        [
            {"recipe": recipe_to_obj(r.recipe), "score": r.score, "size": r.subset_size}
            for r in top
        ],
        sort_keys=True,
    )
    return ctx


def run_search(
    config: SearchConfig,
    pool: CanonicalPool,
    signals: SignalTable,
    oracle,
    catalog: Catalog | None = None,
    sink=None,
) -> SearchResult:
    """Run the full budgeted search and return the incumbent.

    Spends exactly ``config.budget`` oracle evaluations (three warmup probes
    plus one per search step). Candidate materialization never touches the
    oracle. Assistant failures degrade to the deterministic fallbacks; an
    oracle failure aborts after the ledger sink has seen every completed
    event.
    """
    config.validate()
    catalog = catalog or default_catalog(len(pool))
    rt = _Runtime(config, pool, signals, oracle, catalog, sink)
    port = None
    if config.assistant_mode == "external":
        port = AssistantPort(
            config.assistant_commands, config.assistant_timeout, rt.emit,
            catalog, config.l_max,
        )

    warmup_records, anchor = _run_warmup(rt)
    stagnation = 0

    for step in range(WARMUP_COUNT + 1, config.budget + 1):
        records = rt.history.records

        guidance = None
        if port is not None:
            ctx = _external_contexts(rt, step, anchor, None, None)
            guidance = port.summarize(ctx, step)
        if guidance is None:
            guidance = fallback_summarize(records, catalog)
        rt.emit(guidance.to_event(step))

        candidates: list[Candidate] | None = None
        if port is not None:
            ctx = _external_contexts(rt, step, anchor, guidance, None)
            proposed = port.propose(ctx, step)
            if proposed:
                materialized = [rt.try_materialize(r) for r in proposed]
                candidates = [c for c in materialized if c is not None]
                candidates = candidates[: config.candidates_per_step] or None
        if not candidates:
            candidates = _fallback_propose(rt, step, anchor, guidance)

        gp = fit_gp(
            np.stack([r.encoding for r in records]),
            np.array([r.score for r in records]),
        )
        for cand in candidates:
            cand.mu, cand.sigma = predict_gp(gp, cand.encoding)

        ranking = None
        rank_meta: dict = {}
        if config.random_select:
            rng = role_rng(config.master_seed, step, "rank")
            order = list(rng.permutation(len(candidates)))
            ranking = [int(i) for i in order]
        elif port is not None:
            ctx = _external_contexts(rt, step, anchor, guidance, candidates)
            ranked = port.rank(ctx, step, len(candidates))
            if ranked is not None:
                ranking, rank_meta = ranked
        if ranking is None:
            ranking = fallback_rank(candidates, records)

        rank_of = {cand_idx: pos for pos, cand_idx in enumerate(ranking)}
        rt.emit({
            "type": "candidates",
            "step": step,
            "items": [
                {
                    "recipe": recipe_to_obj(c.recipe),
                    "mu": float(c.mu),
                    "sigma": float(c.sigma),
                    "retain_ratio": float(c.retain_ratio),
                    "subset_hash": c.subset.content_hash(),
                    "rank": rank_of[i],
                    "chosen": i == ranking[0],
                }
                for i, c in enumerate(candidates)
            ],
            **({"rank_meta": rank_meta} if any(rank_meta.values()) else {}),
        })

        record, improved = rt.evaluate(step, candidates[ranking[0]], is_warmup=False)
        if improved:
            stagnation = 0
        else:
            stagnation += 1

        if stagnation >= config.patience:
            new_anchor = None
            if port is not None:
                ctx = _external_contexts(rt, step, anchor, guidance, None)
                new_anchor = port.reseed(ctx, step)
            if new_anchor is None:
                rng = role_rng(config.master_seed, step, "reseed")
                new_anchor = fallback_reseed(rt.history.records, catalog, rng, config.l_max)
            anchor = new_anchor
            rt.seed_phase += 1
            stagnation = 0
            rt.emit({
                "type": "reseed",
                "step": step,
                "seed_phase": rt.seed_phase,
                "recipe": recipe_to_obj(anchor),
            })

    incumbent = rt.history.incumbent()
    incumbent_subset = rt.history.subsets[incumbent.step]
    return SearchResult(
        incumbent_recipe=incumbent.recipe,
        incumbent_ids=incumbent_subset.ids(),
        incumbent_score=incumbent.score,
        incumbent_step=incumbent.step,
        records=list(rt.history.records),
    )
