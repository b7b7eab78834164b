"""The evaluation boundary: external command adapter and synthetic oracles.

A full evaluation is one budget unit. The command oracle materializes the
selected subset as a manifest file and hands it to a user-supplied command
(argv plus the manifest path; one JSON object with a "score" on stdout;
higher is better). The synthetic oracles score a subset from its state
vector alone and exist so the whole search loop can be verified at desk
scale without any training. A per-run cache keyed by subset content keeps
identical subsets from being scored twice.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .operators import Subset
from .pool import CanonicalPool
from .recipe import Recipe, recipe_to_obj
from .state import StateVector

COMMAND_TIMEOUT_DEFAULT = 24 * 3600.0  # full evaluations can take hours


class OracleError(RuntimeError):
    """Evaluation failed; the caller must flush its ledger and abort."""


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation request handed across the oracle boundary."""

    run_id: str
    step: int
    recipe: Recipe
    subset: Subset


@dataclass(frozen=True)
class EvalOutcome:
    score: float
    per_benchmark: dict[str, float] | None = None
    duration_s: float | None = None
    cache_hit: bool = False


def write_manifest(path: str, pool: CanonicalPool, request: EvalRequest) -> None:
    """Write the subset manifest: one header line, then full records in pool order."""
    header = {
        "run_id": request.run_id,
        "step": request.step,
        "recipe": recipe_to_obj(request.recipe),
        "subset_size": len(request.subset),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for pos in request.subset.positions:
            s = pool.samples[pos]
            rec = {
                "id": s.id,
                "instruction": s.instruction,
                "response": s.response,
                "source": s.source,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


class CommandOracle:
    """Adapter for an external evaluation command.

    Contract: ``argv = command + [manifest_path]``; stdout carries one JSON
    object ``{"score": number, "per_benchmark": object?}``; exit 0 on
    success; higher scores are better.
    """

    def __init__(
        self,
        command: list[str],
        manifest_dir: str,
        pool: CanonicalPool,
        timeout: float = COMMAND_TIMEOUT_DEFAULT,
    ):
        self.command = list(command)
        self.manifest_dir = Path(manifest_dir)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.pool = pool
        self.timeout = timeout

    def evaluate(self, request: EvalRequest, state: StateVector) -> EvalOutcome:
        manifest = str(self.manifest_dir / f"manifest_step{request.step:03d}.jsonl")
        write_manifest(manifest, self.pool, request)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                self.command + [manifest],
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except FileNotFoundError as exc:
            raise OracleError(f"evaluation command not found: {self.command[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise OracleError(
                f"evaluation command timed out after {self.timeout}s"
            ) from exc
        duration = time.monotonic() - started
        if proc.returncode != 0:
            raise OracleError(
                f"evaluation command exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            score = float(doc["score"])
            per_benchmark = doc.get("per_benchmark")
            if per_benchmark is not None:
                per_benchmark = {str(k): float(v) for k, v in per_benchmark.items()}
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                RecursionError) as exc:
            raise OracleError(
                f"unparsable evaluation output: {proc.stdout.strip()[:500]}"
            ) from exc
        if not np.isfinite(score):
            raise OracleError(f"non-finite score from evaluation command: {score}")
        return EvalOutcome(score=score, per_benchmark=per_benchmark, duration_s=duration)


# ---------------------------------------------------------------------------
# Synthetic oracles
# ---------------------------------------------------------------------------

SYNTHETIC_FAMILIES = ("planted_quadratic", "state_linear", "constant")


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Deterministic desk-scale stand-in for training plus evaluation.

    planted_quadratic: score = offset - sum_f weights[f] * (state_f - targets[f])^2
    state_linear:      score = intercept + sum_f coefficients[f] * state_f
    constant:          score = value

    State fields are addressed by their flat names (``retain_ratio``,
    ``score_per_task.<benchmark>``, ...). Optional Gaussian noise is seeded
    by (noise_seed, subset hash), so identical subsets always score
    identically.
    """

    family: str = "constant"
    value: float = 0.0
    offset: float = 1.0
    weights: dict[str, float] = field(default_factory=dict)
    targets: dict[str, float] = field(default_factory=dict)
    coefficients: dict[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    noise_std: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in SYNTHETIC_FAMILIES:
            raise ValueError(f"unknown synthetic oracle family {self.family!r}")

    @classmethod
    def from_dict(cls, doc, field_names=None) -> "SyntheticOracleSpec":
        """Build a spec from parsed JSON; a ValueError names every problem.

        Every number must be a JSON number. With ``field_names`` (the flat
        state fields of the pool), weights, targets and coefficients may
        address only those fields.
        """
        if not isinstance(doc, dict):
            raise ValueError("oracle spec must be a JSON object")
        numbers = {k: doc[k] for k in ("value", "offset", "intercept", "noise_std") if k in doc}
        problems = []
        for table in ("weights", "targets", "coefficients"):
            if not isinstance(doc.get(table, {}), dict):
                problems.append(f"{table} must be an object of state field -> number")
                continue
            for name, value in doc.get(table, {}).items():
                numbers[f"{table}.{name}"] = value
                if field_names is not None and name not in field_names:
                    problems.append(f"{table}: unknown state field {name!r}")
        problems += [
            f"{key} must be a number, got {value!r}" for key, value in numbers.items()
            if isinstance(value, bool) or not isinstance(value, (int, float))
        ]
        seed = doc.get("noise_seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            problems.append(f"noise_seed must be a nonnegative integer, got {seed!r}")
        if problems:
            raise ValueError("; ".join(problems))
        return cls(
            family=doc.get("family", "constant"),
            value=float(doc.get("value", 0.0)),
            offset=float(doc.get("offset", 1.0)),
            weights={k: float(v) for k, v in doc.get("weights", {}).items()},
            targets={k: float(v) for k, v in doc.get("targets", {}).items()},
            coefficients={k: float(v) for k, v in doc.get("coefficients", {}).items()},
            intercept=float(doc.get("intercept", 0.0)),
            noise_std=float(doc.get("noise_std", 0.0)),
            noise_seed=seed,
        )


def evaluate_synthetic(
    request: EvalRequest, spec: SyntheticOracleSpec, state: StateVector
) -> float:
    """Score a subset from its state vector under a synthetic family."""
    fields = state.flat_fields()
    if spec.family == "constant":
        score = spec.value
    elif spec.family == "planted_quadratic":
        score = spec.offset
        for name, weight in spec.weights.items():
            target = spec.targets.get(name, 0.0)
            score -= weight * (fields[name] - target) ** 2
    else:  # state_linear
        score = spec.intercept
        for name, coef in spec.coefficients.items():
            score += coef * fields[name]
    if spec.noise_std > 0.0:
        digest = int(request.subset.content_hash()[:16], 16)
        rng = np.random.default_rng(np.random.SeedSequence((spec.noise_seed, digest)))
        score += spec.noise_std * float(rng.standard_normal())
    return float(score)


class SyntheticOracle:
    """Oracle interface over a synthetic spec."""

    def __init__(self, spec: SyntheticOracleSpec):
        self.spec = spec

    def evaluate(self, request: EvalRequest, state: StateVector) -> EvalOutcome:
        return EvalOutcome(score=evaluate_synthetic(request, self.spec, state))


class EvalCache:
    """Per-run score cache keyed by subset content hash."""

    def __init__(self) -> None:
        self._store: dict[str, EvalOutcome] = {}

    def lookup(self, subset_hash: str) -> EvalOutcome | None:
        hit = self._store.get(subset_hash)
        if hit is None:
            return None
        return EvalOutcome(
            score=hit.score, per_benchmark=hit.per_benchmark, cache_hit=True
        )

    def store(self, subset_hash: str, outcome: EvalOutcome) -> None:
        self._store[subset_hash] = outcome
