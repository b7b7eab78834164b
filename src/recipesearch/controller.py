"""The budgeted search loop: warmup probes, local edits, ranking, reseeding.

One run spends exactly ``budget`` full evaluations: three warmup probes
spanning low/medium/high retention, then one evaluation per search step. Each
step records findings about the history (guidance, which no fallback
decision reads, so a run with no sink and no role command skips it),
proposes sibling recipes around the current seed anchor, materializes them
(execute, never the oracle), scores them with the GP surrogate, and lets the
ranker pick exactly one for full evaluation. A candidate has no state: one
is computed when an evaluation misses the run's cache, which then keeps it
with the score, or for an external ranker's candidate table. Warmup bands
and the fallback ranker read only the retain ratio, which needs no state.
The incumbent and the seed anchor are tracked separately; the anchor moves
only when the incumbent has stagnated for ``patience`` consecutive
evaluations.

The Summarizer/Proposer/Ranker/Reseeder roles are ports: deterministic
fallback policies are built in, and a role with a command in
``SearchConfig.assistant_commands`` runs it (prompt on stdin, JSON on stdout),
degrading back to the fallback on any failure.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from importlib import resources
from itertools import count, islice

import numpy as np

from .operators import MIX, Catalog, OperatorSpec, Subset, default_catalog, source_step
from .oracle import NOT_STARTED, EvalCache, EvalRequest, OracleError, run_command
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
    sample_random_recipe,
    size_range,
    validate_recipe,
)
from .state import StateError, StateVector, check_summarizable, compute_state
from .surrogate import fit_gp, predict_gp

logger = logging.getLogger(__name__)

WARMUP_BIN_BOUNDS = (1.0 / 3.0, 2.0 / 3.0)
# The (lo, hi] retain-ratio bands: one warmup probe each, and the summarizer's bands.
RETAIN_BANDS = tuple(zip((0.0, *WARMUP_BIN_BOUNDS), (*WARMUP_BIN_BOUNDS, 1.0)))
WARMUP_COUNT = len(RETAIN_BANDS)
WARMUP_RESAMPLE_CAP = 500
# UCB exploration weight of the fallback ranker, and the retain ratio below
# which it demotes a candidate as degenerate.
KAPPA = 1.0
RETAIN_FLOOR = 0.02
ASSISTANT_RETRIES = 2
ASSISTANT_TIMEOUT_S = 120.0
# Entries of a run's prefix memo. Over five 15-evaluation searches on a
# 50k-sample pool, 64 entries spared 665 of the 669 operator steps that
# repeated an executed prefix (16 entries spared 540), and held at most
# about 13 MB of subset positions.
PREFIX_MEMO_SIZE = 64

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
    # role -> argv; exactly the roles named here run externally
    assistant_commands: dict[str, list[str]] = field(default_factory=dict)
    random_select: bool = False                 # ablation: uniform candidate choice
    run_id: str | None = None

    def validate(self) -> None:
        if self.budget <= WARMUP_COUNT:
            raise ControllerError(
                f"budget must exceed warmup count {WARMUP_COUNT}, got {self.budget}"
            )
        for name, floor in (("l_max", 1), ("master_seed", 0), ("patience", 1),
                            ("candidates_per_step", 1)):
            if getattr(self, name) < floor:
                raise ControllerError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        for role, command in self.assistant_commands.items():
            if role not in ASSISTANT_ROLES:
                raise ControllerError(
                    f"unknown assistant role {role!r}, expected one of "
                    f"{', '.join(ASSISTANT_ROLES)}"
                )
            if not command:
                raise ControllerError(f"empty assistant command for role {role!r}")
        if self.random_select and "ranker" in self.assistant_commands:
            raise ControllerError("random_select leaves no choice to a ranker command")

    def resolved_run_id(self) -> str:
        return self.run_id if self.run_id else f"run-seed{self.master_seed}"

    def to_dict(self) -> dict:
        """The ledger header's config, with the fixed warmup and ranking constants."""
        return {
            **asdict(self),
            "run_id": self.resolved_run_id(),
            "assistant_mode": "external" if self.assistant_commands else "fallback",
            "warmup_bin_bounds": list(WARMUP_BIN_BOUNDS),
            "kappa": KAPPA,
            "retain_floor": RETAIN_FLOOR,
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
        """The ledger's eval line: every field, the encoding as a list, no null duration."""
        event = {**asdict(self), "type": "eval", "encoding": self.encoding.tolist()}
        if self.duration_s is None:
            del event["duration_s"]
        return event


@dataclass(frozen=True)
class Guidance:
    findings: list[str]
    source: str = "fallback"

    def to_event(self, step: int) -> dict:
        return {**asdict(self), "type": "guidance", "step": step}

    def rendered(self) -> str:
        return "\n".join(f"{i}. {f}" for i, f in enumerate(self.findings, start=1))


@dataclass
class Candidate:
    """A materialized recipe: its subset and encoding, and the surrogate's mu
    and sigma once predicted."""

    recipe: Recipe
    subset: Subset
    encoding: np.ndarray
    mu: float = 0.0
    sigma: float = 0.0

    @property
    def retain_ratio(self) -> float:
        # the expression of compute_state, so the bits are those of the state's
        return len(self.subset) / len(self.subset.pool)


@dataclass
class SearchResult:
    incumbent_recipe: Recipe
    incumbent_subset: Subset
    incumbent_score: float
    incumbent_step: int
    records: list[EvalRecord]

    @property
    def incumbent_ids(self) -> list[str]:
        return self.incumbent_subset.ids()


# ---------------------------------------------------------------------------
# Fallback policies
# ---------------------------------------------------------------------------

def fallback_summarize(history: list[EvalRecord], catalog: Catalog) -> Guidance:
    """Descriptive findings about the history, capped at five.

    Findings cover per-operator mean-score deltas (present vs absent), the
    strongest state-field/score rank correlations, and the best retain-ratio
    band. They are a record for the ledger and the external prompts; no
    fallback decision reads them.
    """
    if not history:
        raise ControllerError("summarizer requires a nonempty history")
    if len(history) == 1:
        return Guidance(findings=["insufficient evidence: only one evaluation so far"])
    scores = np.array([r.score for r in history])
    findings: list[str] = []
    deltas: list[tuple[str, float, int, int]] = []
    for name in catalog.names():
        present = np.array([name in r.recipe.operators() for r in history])
        if present.all() or not present.any():
            continue
        delta = float(scores[present].mean() - scores[~present].mean())
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

    top_band = None
    best_mean = -np.inf
    for lo, hi in RETAIN_BANDS:
        mask = np.array([lo < r.state.retain_ratio <= hi for r in history])
        if mask.any() and scores[mask].mean() > best_mean:
            best_mean = float(scores[mask].mean())
            top_band = (lo, hi)
    if top_band is not None:
        findings.append(
            f"retain-ratio band ({top_band[0]:.3f}, {top_band[1]:.3f}] scored best "
            f"(mean {best_mean:.4f})"
        )
    return Guidance(findings=findings[:5])


def fallback_rank(candidates: list[Candidate]) -> list[int]:
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


def average_ranks(table: np.ndarray) -> np.ndarray:
    """The average rank of each entry of a 2-D float table within its column.

    A value v ranks ``(count(< v) + count(<= v) + 1) / 2`` in its column:
    the t entries equal to v, with a entries below them, share the mean of
    ranks a + 1 to a + t. Each rank is an exact half, so it has the bits of
    scipy's ``rankdata(table, method="average", axis=0)``. There is no
    branch for NaN, which has no rank: no state field or score can be NaN,
    because ingestion rejects a pool whose token, IFD or varentropy ratio
    would be 0/0, and an oracle score or a ledger number must be finite.
    """
    ordered = np.sort(table, axis=0)
    ranks = np.empty(table.shape, dtype=np.float64)
    for j in range(table.shape[1]):
        below = np.searchsorted(ordered[:, j], table[:, j], side="left")
        through = np.searchsorted(ordered[:, j], table[:, j], side="right")
        ranks[:, j] = (below + through + 1) / 2
    return ranks


def state_correlations(
    fields: list[dict[str, float]], scores,
) -> list[tuple[str, float]]:
    """Spearman rho of each varying flat state field with score, strongest first.

    ``fields`` holds one ``StateVector.flat_fields()`` mapping per evaluation;
    only the fields every mapping has are correlated, so a ledger joining
    runs over pools with different benchmarks keeps its common fields.
    Needs three evaluations and non-constant scores; fields that never vary
    or give a non-finite rho are left out. Ties in |rho| go to the field name.
    The scores and the varying fields are ranked by :func:`average_ranks`
    and correlated in one ``np.corrcoef``, scores first; each rho has the
    bits of scipy's two-variable Spearman call on that field and the scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    # the std alone misses equal scores whose float std is above 0 (three of 0.1)
    if len(scores) < 3 or scores.std() == 0 or scores.max() == scores.min():
        return []
    names = sorted(set(fields[0]).intersection(*fields[1:]))
    table = np.array([[f[name] for name in names] for f in fields], dtype=np.float64)
    varying = table.max(axis=0) != table.min(axis=0)
    if not varying.any():
        return []
    ranks = average_ranks(np.column_stack([scores, table[:, varying]]))
    rhos = np.corrcoef(ranks, rowvar=False)[0, 1:]
    kept = [name for name, keep in zip(names, varying) if keep]
    out = [(name, float(rho)) for name, rho in zip(kept, rhos) if np.isfinite(rho)]
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


def _best_params_for(history: list[EvalRecord], op: str) -> dict:
    """Parameters of the operator's last occurrence in its best-scoring recipe.

    ``op`` must occur in ``history``, as every operator of a reseed motif
    does; equal scores go to the earliest recipe.
    """
    best = max((rec for rec in history if op in rec.recipe.operators()),
               key=lambda rec: rec.score)
    return dict([s.params for s in best.recipe.steps if s.operator == op][-1])


def fallback_reseed(
    history: list[EvalRecord],
    catalog: Catalog,
    rng: np.random.Generator,
    l_max: int = DEFAULT_L_MAX,
) -> Recipe:
    """Draw a 1-3 step restart motif proportional to positive tertile signals.

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
        candidate = Recipe(tuple(OperatorSpec(op, _best_params_for(history, op))
                                 for op in motif))
        if not validate_recipe(candidate, catalog, l_max):
            return candidate
    return sample_random_recipe(catalog, rng, l_max)


# ---------------------------------------------------------------------------
# External assistant roles
# ---------------------------------------------------------------------------

def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} overflows a float")
    return value


def _json_payload(out: str):
    """The JSON document in an assistant's output, or None if none decodes.

    Markdown fences are dropped, and so is any text around the outermost
    brackets. ``NaN`` and ``Infinity`` do not decode: they are not JSON.
    Nor does a number that overflows a float, such as ``1e400``.
    """
    body = out.strip()
    fence = re.search(r"```(?:json)?\s*(.*?)```", body, flags=re.DOTALL)
    if fence:
        body = fence.group(1).strip()
    if body and body[0] not in "[{":
        start = min((i for i in (body.find("["), body.find("{")) if i >= 0), default=-1)
        end = max(body.rfind("]"), body.rfind("}"))
        if 0 <= start < end:
            body = body[start : end + 1]
    try:
        return json.loads(body, parse_constant=_no_constant, parse_float=_finite_float)
    except (ValueError, RecursionError):
        return None


def _parse_findings(out: str, rt: _Runtime, candidates) -> tuple[Guidance | None, str]:
    lines = [ln.strip() for ln in out.strip().splitlines() if ln.strip()]
    if not lines:
        return None, "no findings"
    return Guidance(findings=lines[:5], source="external"), ""


def _parse_recipes(out: str, rt: _Runtime, candidates) -> tuple[list[Recipe] | None, str]:
    doc = _json_payload(out)
    if doc is None:
        return None, "unparsable JSON"
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        return None, "not a JSON array"
    recipes = []
    for item in doc:
        try:
            recipes.append(recipe_from_obj(item, rt.catalog, rt.config.l_max))
        except RecipeValidationError as exc:
            logger.info("dropping invalid proposed recipe: %s", exc)
    if not recipes:
        return None, "no valid recipes"
    return recipes, ""


def _parse_ranking(out: str, rt: _Runtime, candidates) -> tuple[tuple | None, str]:
    doc = _json_payload(out)
    if doc is None:
        return None, "unparsable JSON"
    ranking = doc.get("ranking") if isinstance(doc, dict) else None
    # only JSON integers: int() would pass 1.7 as 1 and true as 1
    if not isinstance(ranking, list) or any(type(i) is not int for i in ranking):
        return None, "missing or invalid ranking"
    n = len(candidates)
    if sorted(ranking) != list(range(n)):
        return None, f"ranking is not a permutation of 0..{n - 1}"
    return (ranking, {k: doc.get(k) for k in ("confidence", "rationale", "eval_rationale")}), ""


def _parse_motif(out: str, rt: _Runtime, candidates) -> tuple[Recipe | None, str]:
    doc = _json_payload(out)
    if doc is None:
        return None, "unparsable JSON"
    if not isinstance(doc, list):
        return None, "not a step array"
    try:
        recipe = recipe_from_obj({"steps": doc}, rt.catalog, rt.config.l_max)
    except RecipeValidationError as exc:
        return None, f"invalid motif: {exc}"
    if len(recipe) > 3 or recipe.operators() == [MIX]:
        return None, "motif out of bounds"
    return recipe, ""


# Role -> parser of its command's output, giving (value, "") or (None, reason).
_ROLE_PARSERS = {
    "summarizer": _parse_findings,
    "proposer": _parse_recipes,
    "ranker": _parse_ranking,
    "reseeder": _parse_motif,
}
ASSISTANT_ROLES = tuple(_ROLE_PARSERS)


def ask_role(rt: _Runtime, role: str, step: int, anchor: Recipe,
             guidance: Guidance | None = None, candidates: list[Candidate] | None = None):
    """The role's parsed answer from its command, or None to use the fallback.

    Protocol: rendered prompt on stdin, role-typed JSON on stdout, nonzero
    exit means failure. A role without a command returns None before any
    prompt is built. Each failed attempt, of 1 + ASSISTANT_RETRIES, is an
    ``assistant_failure`` event; a command that cannot be started is not
    retried.
    """
    command = rt.config.assistant_commands.get(role)
    if command is None:
        return None
    prompt = (resources.files("recipesearch") / "templates" / f"{role}.txt").read_text(
        encoding="utf-8")
    # {name} placeholders only, so the templates' literal JSON braces stay
    for key, value in _external_contexts(rt, anchor, guidance, candidates).items():
        prompt = prompt.replace("{" + key + "}", value)
    for attempt in range(1 + ASSISTANT_RETRIES):
        proc, error = run_command(command, prompt, ASSISTANT_TIMEOUT_S)
        if proc is not None:
            if proc.returncode != 0:
                error = f"exit code {proc.returncode}"
            elif not proc.stdout.strip():
                error = "empty output"
            else:
                value, error = _ROLE_PARSERS[role](proc.stdout, rt, candidates)
                if value is not None:
                    return value
        logger.warning("assistant %s failed (step %d, attempt %d): %s",
                       role, step, attempt, error)
        rt.emit({
            "type": "assistant_failure",
            "step": step,
            "role": role,
            "attempt": attempt,
            "error": error,
        })
        if proc is None and error.startswith(NOT_STARTED):
            return None  # a command that cannot start will not start on a retry
    return None

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


def candidate_table(candidates: list[Candidate], state_of) -> str:
    """The ranker's table; ``state_of(subset)`` gives each candidate's state."""
    lines = [
        "idx | mu | sigma | retain | score_mean | drift | recipe",
    ]
    for i, c in enumerate(candidates):
        state = state_of(c.subset)
        lines.append(
            f"{i:3d} | {c.mu:9.4f} | {c.sigma:7.4f} | {c.retain_ratio:6.3f} | "
            f"{state.score_mean:9.4f} | {state.distribution_drift:6.4f} | "
            f"{describe_recipe(c.recipe)}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------

class PrefixMemo(OrderedDict):
    """A bounded LRU map from a mix-free step prefix to the Subset it produced.

    ``execute_recipe`` reads it with ``get`` and fills it by item assignment.
    Operators are pure and the pool is fixed, so an entry never goes stale
    within a run.
    """

    def __init__(self, capacity: int = PREFIX_MEMO_SIZE):
        super().__init__()
        self.capacity = capacity
        self.served = 0          # operator steps that hits spared

    def get(self, prefix: tuple) -> Subset | None:
        subset = super().get(prefix)
        if subset is not None:
            self.move_to_end(prefix)
            self.served += len(prefix)
        return subset

    def __setitem__(self, prefix: tuple, subset: Subset) -> None:
        super().__setitem__(prefix, subset)
        self.move_to_end(prefix)
        if len(self) > self.capacity:
            self.popitem(last=False)


class _Runtime:
    """One run's state: its evaluations, incumbent, caches and event sink."""

    def __init__(self, config, signals, oracle, catalog, sink):
        self.config = config
        self.signals = signals
        self.oracle = oracle
        self.catalog = catalog
        self.sink = sink
        self.records: list[EvalRecord] = []
        self.subsets: list[Subset] = []          # the evaluated subset of each record
        self.incumbent_index: int | None = None
        self.cache = EvalCache()
        self.prefixes = PrefixMemo()
        self.materializations = 0
        self.steps_executed = 0
        self.states_computed = 0
        self.draws = 0                  # random recipes drawn
        self.draws_skipped = 0          # of those, proved by size_range to miss a band
        self.seed_phase = 1

    def emit(self, event: dict) -> None:
        if self.sink is not None:
            self.sink(event)

    def incumbent(self) -> EvalRecord:
        if self.incumbent_index is None:
            raise ControllerError("no evaluations recorded yet")
        return self.records[self.incumbent_index]

    def resolve_source(self, ref: str) -> Subset | None:
        """The subset of the evaluation that mix source ``ref`` names, or None.

        ``ref`` is read by :func:`source_step`, the rule validation checks.
        """
        step = source_step(ref)
        if step == 0:
            return None if self.incumbent_index is None else self.subsets[self.incumbent_index]
        return self.subsets[step - 1] if step is not None and step <= len(self.subsets) else None

    def state_of(self, subset: Subset) -> StateVector:
        """The subset's state, freshly computed and counted."""
        self.states_computed += 1
        return compute_state(subset, self.signals)

    def materialize(self, recipe: Recipe) -> Candidate:
        """Execute a candidate, never the oracle, and compute no state.

        Execution goes through the run's prefix memo, so the candidate's
        subset is that of a fresh execution. Raises ExecutionError, or the
        StateError that computing the state would raise, when the candidate
        aborts.
        """
        memo = self.prefixes
        served = memo.served
        self.materializations += 1
        try:
            subset = execute_recipe(recipe, self.signals, self.resolve_source, memo)
        except ExecutionError as exc:
            self.steps_executed += exc.step_index - (memo.served - served)
            raise
        self.steps_executed += len(recipe) - (memo.served - served)
        check_summarizable(subset, self.signals)
        return Candidate(
            recipe=recipe,
            subset=subset,
            encoding=encode_recipe(recipe, self.catalog),
        )

    def try_materialize(self, recipe: Recipe) -> Candidate | None:
        """``materialize``, or None when the candidate aborts."""
        try:
            return self.materialize(recipe)
        except (ExecutionError, StateError) as exc:
            logger.debug("candidate aborted: %s (%s)", describe_recipe(recipe), exc)
            return None

    def draw_candidate(
        self, rng: np.random.Generator, cap: int, band: tuple[float, float] | None = None,
    ) -> Candidate | None:
        """The first of up to ``cap`` random recipes that materializes with a
        retain ratio in ``band``, a ``(lo, hi]`` pair, else the draw whose
        ratio is nearest the band (earliest on a tie). Without a band the
        first draw that materializes is taken.

        A draw whose :func:`size_range` proves it misses the band (its largest
        size over the pool size at most ``lo``, or its smallest above ``hi``:
        float division is monotone) is not materialized unless no draw hits.
        The candidate returned and the draws taken from ``rng`` are those of
        materializing every draw.
        """
        n = len(self.signals.pool)
        nearest: tuple[float, int, Candidate] | None = None
        proved: list[tuple[int, Recipe]] = []   # the draws proved to miss

        def keep_nearer(i: int, cand: Candidate) -> None:
            nonlocal nearest
            lo, hi = band
            key = (max(lo - cand.retain_ratio, cand.retain_ratio - hi), i)
            if nearest is None or key < nearest[:2]:
                nearest = (*key, cand)

        for i in range(cap):
            recipe = sample_random_recipe(self.catalog, rng, self.config.l_max)
            self.draws += 1
            if band is not None:
                sizes = size_range(recipe, self.signals)
                if sizes is not None and (sizes[1] / n <= band[0] or sizes[0] / n > band[1]):
                    proved.append((i, recipe))
                    self.draws_skipped += 1
                    continue
            cand = self.try_materialize(recipe)
            if cand is None:
                continue
            if band is None or band[0] < cand.retain_ratio <= band[1]:
                return cand
            keep_nearer(i, cand)
        for i, recipe in proved:
            cand = self.try_materialize(recipe)
            if cand is not None:
                keep_nearer(i, cand)
        return None if nearest is None else nearest[2]

    def evaluate(self, cand: Candidate, is_warmup: bool) -> bool:
        """One budget unit at step ``len(records) + 1``: oracle or cache, then record.

        Returns True iff the record strictly improves the incumbent. A
        non-finite score or ``per_benchmark`` value raises OracleError before
        it is cached or recorded. A miss computes the subset's state, which
        the cache keeps with the outcome; a cache hit records the stored
        score and state and no duration.
        """
        step = len(self.records) + 1
        subset_hash = cand.subset.content_hash()
        hit = self.cache.lookup(subset_hash)
        cache_hit = hit is not None
        if cache_hit:
            outcome, state = hit
        else:
            request = EvalRequest(
                run_id=self.config.resolved_run_id(),
                step=step,
                recipe=cand.recipe,
                subset=cand.subset,
            )
            state = self.state_of(cand.subset)
            outcome = self.oracle.evaluate(request, state)
            if not np.isfinite(outcome.score):
                raise OracleError(f"non-finite score from the oracle: {outcome.score}")
            for name, value in (outcome.per_benchmark or {}).items():
                if not np.isfinite(value):
                    raise OracleError(
                        f"non-finite per_benchmark value from the oracle: {name}: {value}"
                    )
            self.cache.store(subset_hash, outcome, state)
        record = EvalRecord(
            step=step,
            recipe=cand.recipe,
            encoding=cand.encoding,
            state=state,
            score=float(outcome.score),
            per_benchmark=outcome.per_benchmark,
            subset_size=len(cand.subset),
            subset_hash=subset_hash,
            seed_phase=self.seed_phase,
            is_warmup=is_warmup,
            cache_hit=cache_hit,
            duration_s=None if cache_hit else outcome.duration_s,
        )
        self.records.append(record)
        self.subsets.append(cand.subset)
        improved = self.incumbent_index is None or record.score > self.incumbent().score
        if improved:
            self.incumbent_index = len(self.records) - 1
        if self.sink is not None:  # the eval line copies every field
            self.emit(record.to_event())
        return improved


def _run_warmup(rt: _Runtime) -> Recipe:
    """Probe low/medium/high retention bins, then evaluate the three probes.

    Probes are drawn from one master-seeded stream, bin by bin; a bin that
    stays empty after the resample cap relaxes to the nearest-ratio draw seen
    for it. Returns the seed anchor: the best-scoring probe, ties to the
    earliest, which is the incumbent after the probes.
    """
    rng = role_rng(rt.config.master_seed, 0, "warmup")
    probes: list[Candidate] = []
    for bin_idx, (lo, hi) in enumerate(RETAIN_BANDS):
        draws, skipped = rt.draws, rt.draws_skipped
        cand = rt.draw_candidate(rng, WARMUP_RESAMPLE_CAP, (lo, hi))
        if cand is None:
            raise ControllerError(
                f"warmup bin {bin_idx} unfillable after {WARMUP_RESAMPLE_CAP} draws"
            )
        logger.debug(
            "warmup bin %d (%.4f, %.4f]: %d draws, %d skipped by their size range, %s",
            bin_idx, lo, hi, rt.draws - draws, rt.draws_skipped - skipped,
            "hit" if lo < cand.retain_ratio <= hi else "fell back to the nearest draw",
        )
        probes.append(cand)

    for cand in probes:
        rt.evaluate(cand, is_warmup=True)
    return rt.incumbent().recipe


def _fallback_propose(rt: _Runtime, step: int, anchor: Recipe):
    """Materialized local edits of ``anchor``, None for each that aborts.

    Round ``r`` asks for as many edits as ``candidates_per_step`` still
    lacks valid ones; a ProposeError ends the stream. The consumer bounds it.
    """
    config = rt.config
    valid = 0
    for batch_round in count():
        seed = role_seed(config.master_seed, step, "propose", batch_round)
        try:
            recipes = propose_local_edits(
                anchor, seed, config.candidates_per_step - valid, rt.catalog, config.l_max
            )
        except ProposeError:
            return
        for recipe in recipes:
            cand = rt.try_materialize(recipe)
            valid += cand is not None
            yield cand


def _external_contexts(
    rt: _Runtime, anchor: Recipe, guidance: Guidance | None,
    candidates: list[Candidate] | None,
) -> dict[str, str]:
    """The placeholder values of the role prompt templates."""
    config = rt.config
    records = rt.records
    anchor_record = next(
        (r for r in reversed(records) if r.recipe == anchor), None
    )
    ctx = {
        "pool_size": str(len(rt.signals.pool)),
        "history_table": history_table(records),
        "operator_catalog": rt.catalog.to_json(),
        "n_candidates": str(config.candidates_per_step),
        "l_max": str(config.l_max),
        "current_recipe": describe_recipe(anchor),
        "current_score": f"{anchor_record.score:.4f}" if anchor_record else "not yet evaluated",
        "state_section": (json.dumps(anchor_record.state.to_dict(), indent=2, sort_keys=True)
                          if anchor_record else "unavailable"),
        "insights_section": guidance.rendered() if guidance else "none yet",
        "n_evaluations": str(len(records)),
        "budget_total": str(config.budget),
        "best_score": f"{rt.incumbent().score:.4f}" if records else "n/a",
        "phase": "explore" if len(records) < (config.budget + WARMUP_COUNT) // 2 else "exploit",
    }
    if candidates is not None:
        ctx["candidate_table"] = candidate_table(candidates, rt.state_of)
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

    ``pool`` must be ``signals.pool``, else ControllerError is raised before
    any evaluation. Spends exactly ``config.budget`` oracle evaluations
    (three warmup probes plus one per search step). Candidate
    materialization never touches the oracle. Assistant failures degrade to
    the deterministic fallbacks; an oracle failure aborts after the ledger
    sink has seen every completed event.
    """
    config.validate()
    if pool is not signals.pool:
        raise ControllerError("search with the signals of another pool")
    catalog = catalog or default_catalog(len(pool))
    rt = _Runtime(config, signals, oracle, catalog, sink)

    anchor = _run_warmup(rt)
    stagnation = 0
    records = rt.records

    # the findings go only to the sink's guidance events and to role prompts
    summarize = sink is not None or bool(config.assistant_commands)
    for step in range(WARMUP_COUNT + 1, config.budget + 1):
        guidance = None
        if summarize:
            guidance = (ask_role(rt, "summarizer", step, anchor)
                        or fallback_summarize(records, catalog))
            rt.emit(guidance.to_event(step))

        proposed = ask_role(rt, "proposer", step, anchor, guidance) or []
        m = config.candidates_per_step
        # each source is materialized only until enough of its candidates are valid
        for source in (map(rt.try_materialize, proposed),
                       islice(_fallback_propose(rt, step, anchor), 3 * m)):
            candidates = list(islice(filter(None, source), m))
            if candidates:
                break
        else:
            rescue = rt.draw_candidate(role_rng(config.master_seed, step, "rescue"), 3 * m)
            if rescue is None:
                raise ControllerError(f"no executable candidate found at step {step}")
            candidates = [rescue]

        gp = fit_gp(
            np.stack([r.encoding for r in records]),
            np.array([r.score for r in records]),
        )
        for cand in candidates:
            cand.mu, cand.sigma = predict_gp(gp, cand.encoding)

        if config.random_select:
            rng = role_rng(config.master_seed, step, "rank")
            ranking, rank_meta = [int(i) for i in rng.permutation(len(candidates))], {}
        else:
            ranking, rank_meta = (ask_role(rt, "ranker", step, anchor, guidance, candidates)
                                  or (fallback_rank(candidates), {}))

        if rt.sink is not None:  # each item hashes its subset
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

        if rt.evaluate(candidates[ranking[0]], is_warmup=False):
            stagnation = 0
        else:
            stagnation += 1

        if stagnation >= config.patience:
            anchor = ask_role(rt, "reseeder", step, anchor, guidance) or fallback_reseed(
                records, catalog, role_rng(config.master_seed, step, "reseed"), config.l_max
            )
            rt.seed_phase += 1
            stagnation = 0
            rt.emit({
                "type": "reseed",
                "step": step,
                "seed_phase": rt.seed_phase,
                "recipe": recipe_to_obj(anchor),
            })

    logger.debug(
        "materializations %d, operator steps executed %d, steps served from the "
        "prefix memo %d, states computed %d",
        rt.materializations, rt.steps_executed, rt.prefixes.served, rt.states_computed,
    )
    incumbent = rt.incumbent()
    return SearchResult(
        incumbent_recipe=incumbent.recipe,
        incumbent_subset=rt.subsets[rt.incumbent_index],
        incumbent_score=incumbent.score,
        incumbent_step=incumbent.step,
        records=rt.records,
    )
