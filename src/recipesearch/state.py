"""Realized-subset state vectors: the task/data/model summary used for ranking.

After a candidate recipe is executed, its subset is summarized by eight
fields: benchmark-relevance mean/std and per-benchmark means (task block),
retained-example and retained-token ratios (data block), and the activation-
rate drift plus pool-relative IFD and varentropy means (model block). The
pool-level reference statistics live on the SignalTable, derived from its
columns once, on first read, because the pool is fixed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .operators import Subset
from .pool import SignalTable


class StateError(ValueError):
    """Raised when a state summary is requested for a degenerate subset."""


@dataclass(frozen=True)
class StateVector:
    score_mean: float
    score_std: float
    score_per_task: dict[str, float]
    retain_ratio: float
    token_ratio: float
    distribution_drift: float
    mean_ifd: float
    mean_varentropy: float

    def to_dict(self) -> dict:
        return asdict(self)

    def flat_fields(self) -> dict[str, float]:
        """Scalar view with per-task entries expanded, for correlations."""
        out = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        for name, value in self.score_per_task.items():
            out[f"score_per_task.{name}"] = value
        return out


# Every field but the per-task mapping, in declaration order.
_SCALAR_FIELDS = tuple(f.name for f in fields(StateVector) if f.name != "score_per_task")


def flat_field_names(benchmarks) -> list[str]:
    """The keys of ``StateVector.flat_fields()`` for a pool with these benchmarks."""
    return [*_SCALAR_FIELDS, *(f"score_per_task.{name}" for name in benchmarks)]


def state_from_dict(doc: dict) -> StateVector:
    """A state from its ``to_dict`` form; TypeError for a value that is not a
    JSON number, ValueError or OverflowError for one a float cannot hold."""
    per_task, scalars = doc["score_per_task"], [doc[name] for name in _SCALAR_FIELDS]
    values = (*per_task.values(), *scalars)
    if any(type(v) not in (int, float) for v in values):
        raise TypeError("state value that is not a JSON number")  # a bool or a string
    if not all(map(math.isfinite, values)):  # NaN, Infinity or 1e400
        raise ValueError("state value that is not finite")
    return StateVector(
        score_per_task={k: float(v) for k, v in per_task.items()},
        **{name: float(v) for name, v in zip(_SCALAR_FIELDS, scalars)},
    )


def check_summarizable(subset: Subset, signals: SignalTable) -> None:
    """Raise StateError unless ``compute_state`` can summarize ``subset``.

    The subset must be of ``signals.pool``, nonempty, and hold a sample with
    an active feature. The last check is O(1) when the subset is larger than
    the table's count of samples without one, as it is on a table where
    every sample has activations.
    """
    if subset.pool is not signals.pool:
        raise StateError("state with the signals of another pool")
    if len(subset) == 0:
        raise StateError("empty subset")
    if (len(subset) <= signals.n_without_activations
            and not signals.has_activations[subset.positions].any()):
        raise StateError("no subset sample carries activation features")


def compute_snar(subset: Subset, signals: SignalTable) -> np.ndarray:
    """Fraction of valid subset samples activating each feature, (sae_dim,).

    Magnitudes are ignored; samples without any cached activation are
    excluded from the denominator. The per-feature counts are one product of
    ``signals.pattern_t`` with the subset's 0/1 row mask; they are integers,
    so the rates are exact. The returned array is read-only. Raises
    StateError as :func:`check_summarizable` does.
    """
    check_summarizable(subset, signals)
    n_valid = int(np.count_nonzero(signals.has_activations[subset.positions]))
    row_mask = np.zeros(signals.pattern_t.shape[1])
    row_mask[subset.positions] = 1.0
    rates = (signals.pattern_t @ row_mask) / n_valid
    rates.setflags(write=False)
    return rates


def compute_state(subset: Subset, signals: SignalTable) -> StateVector:
    """All eight state fields for a nonempty subset, relative to the subset's pool.

    Raises StateError as :func:`check_summarizable` does. Relevance mean and
    std aggregate over all (sample, benchmark) pairs jointly; std is the
    population standard deviation. mean_ifd and mean_varentropy are ratios to
    the table's pool means, so the full pool maps to exactly 1.0 on both.
    """
    check_summarizable(subset, signals)
    pool, pos = subset.pool, subset.positions
    # the same rows as relevance[pos], gathered an order of magnitude faster
    scores = np.take(signals.relevance, pos, axis=0)
    drift = float(
        np.linalg.norm(compute_snar(subset, signals) - signals.pool_snar)
        / np.sqrt(signals.sae_dim)
    )
    per_task = {
        name: float(scores[:, j].mean()) for j, name in enumerate(signals.benchmarks)
    }
    return StateVector(
        score_mean=float(scores.mean()),
        score_std=float(scores.std()),
        score_per_task=per_task,
        retain_ratio=len(subset) / len(pool),
        token_ratio=float(pool.token_counts[pos].sum() / pool.total_tokens),
        distribution_drift=drift,
        mean_ifd=float(signals.ifd[pos].mean() / signals.pool_mean_ifd),
        mean_varentropy=float(
            signals.varentropy[pos].mean() / signals.pool_mean_varentropy
        ),
    )
