"""The evaluation boundary: external command adapter and synthetic oracles.

A full evaluation is one budget unit. The command oracle materializes the
selected subset as a manifest file and hands it to a user-supplied command
(argv plus the manifest path; one JSON object with a "score" on stdout;
higher is better). The synthetic oracles score a subset from its state
vector alone and exist so the whole search loop can be verified at desk
scale without any training. A per-run cache keyed by subset content keeps
identical subsets from being scored, or summarized, twice.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import subprocess
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .operators import Subset
from .pool import json_float
from .recipe import Recipe, recipe_to_obj
from .state import StateVector

COMMAND_TIMEOUT_DEFAULT = 24 * 3600.0  # full evaluations can take hours
# The longest command timeout, in seconds: waiting polls in whole
# milliseconds held in a C int, so a longer timeout would raise OverflowError.
COMMAND_TIMEOUT_MAX = 2147483

# The reasons of ``run_command`` for a command that never started.
NOT_STARTED = ("command not found: ", "command not runnable: ")


def timeout_error(timeout: float) -> str | None:
    """None for a usable command timeout, else why it is not: it must be finite, > 0 and
    at most ``COMMAND_TIMEOUT_MAX`` seconds."""
    if 0 < timeout <= COMMAND_TIMEOUT_MAX:  # NaN fails every comparison
        return None
    return f"must be a finite number > 0 and at most {COMMAND_TIMEOUT_MAX}, got {timeout}"


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


def write_manifest(path: str, request: EvalRequest) -> None:
    """Write the subset manifest: one header line, then the subset's records in pool order.

    Each record line holds ``id``, ``instruction``, ``response`` and
    ``source``, exactly the bytes of ``json.dumps(record, sort_keys=True)``;
    the pool formats each line once and keeps it (``CanonicalPool.record_lines``).
    """
    header = {
        "run_id": request.run_id,
        "step": request.step,
        "recipe": recipe_to_obj(request.recipe),
        "subset_size": len(request.subset),
    }
    lines = request.subset.pool.record_lines(request.subset.positions)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        # one write call for the body; joined to the header it would be copied twice
        fh.write(b"".join(lines))


def run_command(
    argv: list[str], stdin: str | None, timeout: float,
) -> tuple[subprocess.CompletedProcess | None, str]:
    """Run ``argv`` with ``stdin`` as its input: the finished process and "", or None and why.

    The one place an external command is started; its output is decoded as
    UTF-8. A timeout that :func:`timeout_error` refuses starts nothing and
    gives ``command timeout <why>``. Any ``OSError`` of starting it (no such
    file, no execute bit, not an executable format) gives
    ``command not found: <argv[0]>`` or
    ``command not runnable: <argv[0]>: <reason>``, the ``NOT_STARTED``
    prefixes. The command runs in a session of its own. When it is still
    running after ``timeout`` seconds its whole process group is killed,
    giving ``command timed out after <timeout>s``; any other exception while
    waiting, ``KeyboardInterrupt`` included, kills the group and is raised
    again. Standard output that is not UTF-8 gives ``output is not UTF-8``.
    """
    error = timeout_error(timeout)
    if error is not None:
        return None, f"command timeout {error}"
    try:
        proc = subprocess.Popen(
            argv, stdin=None if stdin is None else subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
    except FileNotFoundError:
        return None, f"command not found: {argv[0]}"
    except OSError as exc:
        return None, f"command not runnable: {argv[0]}: {exc.strerror or exc}"
    with proc:
        try:
            stdout, stderr = proc.communicate(
                None if stdin is None else stdin.encode("utf-8"), timeout=timeout)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):  # the group is already gone
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                return None, f"command timed out after {timeout}s"
            raise
    try:
        stdout = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None, "output is not UTF-8"
    return subprocess.CompletedProcess(
        argv, proc.returncode, stdout, stderr.decode("utf-8", errors="replace")), ""


class CommandOracle:
    """Adapter for an external evaluation command.

    Contract: ``argv = command + [manifest_path]``; stdout carries one JSON
    object ``{"score": number, "per_benchmark": object?}`` whose score and
    per-benchmark values are JSON numbers, never strings or booleans; exit 0
    on success; higher scores are better.
    """

    def __init__(
        self,
        command: list[str],
        manifest_dir: str,
        timeout: float = COMMAND_TIMEOUT_DEFAULT,
    ):
        self.command = list(command)
        self.manifest_dir = Path(manifest_dir)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.timeout = timeout

    def evaluate(self, request: EvalRequest, state: StateVector) -> EvalOutcome:
        manifest = str(self.manifest_dir / f"manifest_step{request.step:03d}.jsonl")
        write_manifest(manifest, request)
        started = time.monotonic()
        proc, reason = run_command(self.command + [manifest], None, self.timeout)
        if proc is None:
            raise OracleError(f"evaluation {reason}")
        duration = time.monotonic() - started
        if proc.returncode != 0:
            raise OracleError(
                f"evaluation command exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            score = json_float(doc["score"])
            per_benchmark = doc.get("per_benchmark")
            if per_benchmark is not None:
                per_benchmark = {str(k): json_float(v) for k, v in per_benchmark.items()}
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                OverflowError, RecursionError) as exc:
            raise OracleError(
                f"unparsable evaluation output: {proc.stdout.strip()[:500]}"
            ) from exc
        return EvalOutcome(score=score, per_benchmark=per_benchmark, duration_s=duration)


# ---------------------------------------------------------------------------
# Synthetic oracles
# ---------------------------------------------------------------------------

# The spec keys each family reads; family, noise_std and noise_seed apply to every family.
FAMILY_KEYS = {
    "planted_quadratic": ("offset", "weights", "targets"),
    "state_linear": ("intercept", "coefficients"),
    "constant": ("value",),
}
SYNTHETIC_FAMILIES = tuple(FAMILY_KEYS)


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
        """Copy each table, so the caller's dict cannot change the spec after the
        check; then check each field unlike its default in type or value, as
        :meth:`from_dict` would."""
        for table in _TABLES:
            value = getattr(self, table)
            if isinstance(value, dict):
                object.__setattr__(self, table, dict(value))
        problems = _spec_problems({k: v for k, v in vars(self).items()
                                   if (type(v), v) != (type(_DEFAULTS[k]), _DEFAULTS[k])})
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def from_dict(cls, doc, field_names=None) -> "SyntheticOracleSpec":
        """Build a spec from parsed JSON; a ValueError names every problem: each key that
        is not a field, then those of :func:`_spec_problems`. An absent key takes its default."""
        if not isinstance(doc, dict):
            raise ValueError("oracle spec must be a JSON object")
        problems = [f"unknown key {key!r}" for key in doc if key not in _DEFAULTS]
        problems += _spec_problems(doc, field_names)
        if problems:
            raise ValueError("; ".join(problems))
        return cls(**{
            k: {name: float(v) for name, v in doc[k].items()} if k in _TABLES
            else float(doc[k]) if k in _FLOATS else doc[k]
            for k in doc
        })


# Each spec field's default, and the names of its number and table fields.
_DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
             for f in fields(SyntheticOracleSpec)}
_FLOATS = [k for k, v in _DEFAULTS.items() if type(v) is float]
_TABLES = [k for k, v in _DEFAULTS.items() if type(v) is dict]


def _spec_problems(doc: dict, field_names=None) -> list[str]:
    """The problems of a spec document's known keys, in order. The family must be known,
    and every key one it reads (see ``FAMILY_KEYS``). Every number must be a finite
    :func:`json_float`, and the seed a nonnegative int. With ``field_names`` (the flat state
    fields of the pool), weights, targets and coefficients may address only those fields."""
    problems = []
    family = doc.get("family", _DEFAULTS["family"])
    if family not in SYNTHETIC_FAMILIES:
        problems.append(f"unknown synthetic oracle family {family!r}")
    else:
        own = ("family", "noise_std", "noise_seed", *FAMILY_KEYS[family])
        problems += [f"key {key!r} does not apply to family {family!r}"
                     for key in doc if key in _DEFAULTS and key not in own]
    numbers = {k: doc[k] for k in _FLOATS if k in doc}
    for table in _TABLES:
        if not isinstance(doc.get(table, {}), dict):
            problems.append(f"{table} must be an object of state field -> number")
            continue
        for name, value in doc.get(table, {}).items():
            numbers[f"{table}.{name}"] = value
            if field_names is not None and name not in field_names:
                problems.append(f"{table}: unknown state field {name!r}")
    for key, value in numbers.items():
        try:
            if not math.isfinite(json_float(value)):
                problems.append(f"{key} must be finite, got {value!r}")
        except TypeError:
            problems.append(f"{key} must be a number, got {value!r}")
        except OverflowError:
            problems.append(f"{key} is an integer too large for a float")
    seed = doc.get("noise_seed", _DEFAULTS["noise_seed"])
    if type(seed) is not int or seed < 0:
        problems.append(f"noise_seed must be a nonnegative integer, got {seed!r}")
    return problems


class SyntheticOracle:
    """Oracle interface over a synthetic spec."""

    def __init__(self, spec: SyntheticOracleSpec):
        self.spec = spec

    def evaluate(self, request: EvalRequest, state: StateVector) -> EvalOutcome:
        """Score a subset from its state vector under the spec's family."""
        spec = self.spec
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
        return EvalOutcome(score=float(score))


class EvalCache:
    """Per-run cache of each scored subset's outcome and state, keyed by content hash.

    Equal hashes mean equal positions, so the stored state has the bits a
    fresh ``compute_state`` of the subset would give.
    """

    def __init__(self) -> None:
        self._store: dict[str, tuple[EvalOutcome, StateVector]] = {}

    def lookup(self, subset_hash: str) -> tuple[EvalOutcome, StateVector] | None:
        """The outcome and state stored for this subset, or None."""
        return self._store.get(subset_hash)

    def store(self, subset_hash: str, outcome: EvalOutcome, state: StateVector) -> None:
        self._store[subset_hash] = (outcome, state)
