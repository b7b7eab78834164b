"""Recipes: bounded ordered operator programs and their vector encoding.

A recipe is a sequence of 1..L_max validated catalog steps executed left to
right from the full pool. The fixed-dimension encoding gives each catalog
operator two slots, a presence flag and the normalized primary parameter of
its last occurrence, and is the only feature the score surrogate sees. The
local-edit generator produces one-edit siblings (insert / delete / swap
adjacent / retune) and backs the deterministic proposer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .operators import (
    MIX,
    OperatorError,
    OperatorSpec,
    Catalog,
    Subset,
    apply_step,
    validate_spec,
)
from .pool import CanonicalPool, SignalTable

DEFAULT_L_MAX = 5
EDIT_RETRY_CAP = 50
# Encoding slot value for operators that are purely presence-based (mix).
PRESENCE_ONLY_SLOT = 0.5


class RecipeValidationError(ValueError):
    """Structured rejection: carries every violation, not just the first."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ExecutionError(RuntimeError):
    """A step failed during execution; carries the 1-based step index."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


class ProposeError(RuntimeError):
    """The edit generator exhausted its retry cap on a degenerate seed."""


@dataclass(frozen=True)
class Recipe:
    steps: tuple[OperatorSpec, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def operators(self) -> list[str]:
        return [s.operator for s in self.steps]


def validate_recipe(recipe: Recipe, catalog: Catalog, l_max: int = DEFAULT_L_MAX) -> list[str]:
    problems: list[str] = []
    if len(recipe) == 0:
        problems.append("recipe has no steps")
    if len(recipe) > l_max:
        problems.append(f"recipe length {len(recipe)} exceeds L_max {l_max}")
    for i, step in enumerate(recipe.steps, start=1):
        problems.extend(f"step {i}: {p}" for p in validate_spec(step, catalog))
    if sum(1 for s in recipe.steps if s.operator == MIX) > 1:
        problems.append("at most one mix step per recipe")
    return problems


def _coerce_params(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if isinstance(value, float) and value.is_integer() and key in ("k", "n_clusters", "seed"):
            value = int(value)
        out[str(key)] = value
    return out


def recipe_from_obj(obj, catalog: Catalog, l_max: int = DEFAULT_L_MAX) -> Recipe:
    """Build a validated Recipe from an already-parsed JSON object."""
    if not isinstance(obj, dict) or "steps" not in obj:
        raise RecipeValidationError(['recipe must be an object with a "steps" list'])
    steps_raw = obj["steps"]
    if not isinstance(steps_raw, list):
        raise RecipeValidationError(['"steps" must be a list'])
    steps = []
    problems = []
    for i, s in enumerate(steps_raw, start=1):
        if not isinstance(s, dict) or "operator" not in s:
            problems.append(f'step {i}: must be an object with an "operator" field')
            continue
        params = s.get("params", {})
        if not isinstance(params, dict):
            problems.append(f"step {i}: params must be an object")
            continue
        steps.append(OperatorSpec(str(s["operator"]), _coerce_params(params)))
    if problems:
        raise RecipeValidationError(problems)
    recipe = Recipe(tuple(steps))
    problems = validate_recipe(recipe, catalog, l_max)
    if problems:
        raise RecipeValidationError(problems)
    return recipe


def parse_recipe(text: str, catalog: Catalog, l_max: int = DEFAULT_L_MAX) -> Recipe:
    """Parse recipe JSON: {"steps": [{"operator", "params"}, ...]}.

    A one-element array of such objects (the proposer's output shape) is
    accepted too; anything longer is rejected as ambiguous.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RecipeValidationError([f"malformed JSON: {exc}"]) from exc
    if isinstance(obj, list):
        if len(obj) != 1:
            raise RecipeValidationError(
                [f"recipe document holds {len(obj)} recipes; expected exactly one"]
            )
        obj = obj[0]
    return recipe_from_obj(obj, catalog, l_max)


def recipe_to_obj(recipe: Recipe) -> dict:
    """Canonical JSON object form (stable key order for diff-stable ledgers)."""
    return {
        "steps": [
            {"operator": s.operator, "params": {k: s.params[k] for k in sorted(s.params)}}
            for s in recipe.steps
        ]
    }


def describe_recipe(recipe: Recipe) -> str:
    """Compact one-line rendering, e.g. for ledgers and prompts."""
    parts = []
    for s in recipe.steps:
        args = ",".join(f"{k}={s.params[k]}" for k in sorted(s.params))
        parts.append(f"{s.operator}({args})")
    return " -> ".join(parts)


def execute_recipe(
    recipe: Recipe,
    pool: CanonicalPool,
    signals: SignalTable,
    history=None,
) -> Subset:
    """Execute steps left to right from the full pool.

    ``history`` must expose ``resolve_source(ref) -> Subset`` when the recipe
    contains a mix step. Any step that fails, or that produces an empty
    intermediate subset, aborts with the 1-based step index.
    """
    resolver = getattr(history, "resolve_source", None)
    subset = Subset.full(pool)
    for i, step in enumerate(recipe.steps, start=1):
        try:
            subset = apply_step(step, subset, signals, resolve_source=resolver)
        except OperatorError as exc:
            raise ExecutionError(i, str(exc)) from exc
        if len(subset) == 0:
            raise ExecutionError(i, "empty intermediate subset")
    return subset


def encode_recipe(recipe: Recipe, catalog: Catalog) -> np.ndarray:
    """Fixed-dimension encoding: per catalog operator, (presence, parameter).

    The parameter slot is the min-max normalized primary parameter of the
    operator's last occurrence; absent operators contribute (0, 0). Operators
    without a tunable primary contribute a constant slot when present.
    """
    values = np.zeros(2 * len(catalog.entries), dtype=np.float64)
    for j, entry in enumerate(catalog.entries):
        last = None
        for step in recipe.steps:
            if step.operator == entry.name:
                last = step
        if last is None:
            continue
        values[2 * j] = 1.0
        if entry.primary is None:
            values[2 * j + 1] = PRESENCE_ONLY_SLOT
        else:
            lo, hi = entry.encode_range
            v = float(last.param(entry.primary))
            values[2 * j + 1] = min(max((v - lo) / (hi - lo), 0.0), 1.0)
    return values


# ---------------------------------------------------------------------------
# Random sampling and local edits
# ---------------------------------------------------------------------------

def sample_params(op_name: str, catalog: Catalog, rng: np.random.Generator) -> dict:
    """Uniform parameters within the catalog sampling bounds; seeds drawn too."""
    entry = catalog.get(op_name)
    params: dict = {}
    for key, ps in entry.params.items():
        if ps.kind == "fraction":
            params[key] = round(float(rng.uniform(0.01, 1.0)), 4)
        elif ps.kind == "int":
            hi = int(ps.sample_max if ps.sample_max is not None else ps.maximum)
            params[key] = int(rng.integers(int(ps.minimum), hi + 1))
        elif ps.kind == "seed":
            params[key] = int(rng.integers(0, 2**31 - 1))
        elif ps.kind == "source":
            params[key] = "incumbent"
    return params


def sample_random_recipe(
    catalog: Catalog,
    rng: np.random.Generator,
    l_max: int = DEFAULT_L_MAX,
) -> Recipe:
    """Uniform recipe: length in [1, L_max], distinct operators, uniform params.

    Mix is never drawn: a random recipe may be executed against an empty or
    absent history, where a mix source cannot resolve.
    """
    names = [n for n in catalog.names() if n != MIX]
    length = int(rng.integers(1, min(l_max, len(names)) + 1))
    chosen = rng.choice(len(names), size=length, replace=False)
    steps = tuple(
        OperatorSpec(names[i], sample_params(names[i], catalog, rng)) for i in chosen
    )
    return Recipe(steps)


def _retune_value(value: float, ps, rng: np.random.Generator):
    if ps.kind == "fraction":
        delta = float(rng.uniform(-0.2, 0.2))
        return round(min(max(value + delta, 0.01), 1.0), 4)
    hi = int(ps.sample_max if ps.sample_max is not None else ps.maximum)
    span = max(1, int(round(0.2 * hi)))
    delta = int(rng.integers(-span, span + 1))
    return int(min(max(int(value) + delta, int(ps.minimum)), hi))


def propose_local_edits(
    seed_recipe: Recipe,
    rng_seed: int,
    count: int,
    catalog: Catalog,
    l_max: int = DEFAULT_L_MAX,
    insert_weights: dict[str, float] | None = None,
) -> list[Recipe]:
    """``count`` validated one-edit siblings of the seed recipe.

    Each sibling differs by exactly one edit, chosen uniformly over the
    feasible edit kinds: insert a random catalog step, delete a step, swap
    two adjacent steps, or retune one step's primary parameter by a uniform
    perturbation clipped to bounds. ``insert_weights`` optionally biases
    which operator an insert picks (guidance hook); edit-kind choice stays
    uniform. Edits that fail validation or reproduce the seed are re-sampled
    up to a retry cap.
    """
    rng = np.random.default_rng(rng_seed)
    out: list[Recipe] = []
    for _ in range(count):
        candidate = None
        for _attempt in range(EDIT_RETRY_CAP):
            edited = _one_edit(seed_recipe, rng, catalog, l_max, insert_weights)
            if edited is None:
                continue
            if validate_recipe(edited, catalog, l_max):
                continue
            if edited == seed_recipe:
                continue
            candidate = edited
            break
        if candidate is None:
            raise ProposeError(
                f"no valid one-edit sibling after {EDIT_RETRY_CAP} attempts"
            )
        out.append(candidate)
    return out


def _one_edit(
    recipe: Recipe,
    rng: np.random.Generator,
    catalog: Catalog,
    l_max: int,
    insert_weights: dict[str, float] | None,
) -> Recipe | None:
    steps = list(recipe.steps)
    length = len(steps)
    tunable = [
        i for i, s in enumerate(steps) if catalog.get(s.operator).primary is not None
    ]
    kinds = []
    if length < l_max:
        kinds.append("insert")
    if length > 1:
        kinds.extend(["delete", "swap"])
    if tunable:
        kinds.append("retune")
    if not kinds:
        return None
    kind = kinds[int(rng.integers(len(kinds)))]

    if kind == "insert":
        names = [n for n in catalog.names() if n != MIX or MIX not in recipe.operators()]
        if insert_weights:
            w = np.array([max(float(insert_weights.get(n, 1.0)), 0.0) for n in names])
            w = w / w.sum() if w.sum() > 0 else None
        else:
            w = None
        name = names[int(rng.choice(len(names), p=w))]
        pos = int(rng.integers(length + 1))
        steps.insert(pos, OperatorSpec(name, sample_params(name, catalog, rng)))
    elif kind == "delete":
        steps.pop(int(rng.integers(length)))
    elif kind == "swap":
        i = int(rng.integers(length - 1))
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
    else:  # retune
        i = tunable[int(rng.integers(len(tunable)))]
        entry = catalog.get(steps[i].operator)
        ps = entry.params[entry.primary]
        old = float(steps[i].param(entry.primary))
        new_params = dict(steps[i].params)
        new_params[entry.primary] = _retune_value(old, ps, rng)
        steps[i] = OperatorSpec(steps[i].operator, new_params)
    return Recipe(tuple(steps))
