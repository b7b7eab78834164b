"""Realized-subset state vectors: the task/data/model summary used for ranking.

After a candidate recipe is executed, its subset is summarized by eight
fields: benchmark-relevance mean/std and per-benchmark means (task block),
retained-example and retained-token ratios (data block), and the activation-
rate drift plus pool-relative IFD and varentropy means (model block). The
pool-level reference statistics live on the SignalTable, computed once at
load, because the pool is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .operators import Subset
from .pool import CanonicalPool, SignalTable


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
        return {
            "score_mean": self.score_mean,
            "score_std": self.score_std,
            "score_per_task": dict(sorted(self.score_per_task.items())),
            "retain_ratio": self.retain_ratio,
            "token_ratio": self.token_ratio,
            "distribution_drift": self.distribution_drift,
            "mean_ifd": self.mean_ifd,
            "mean_varentropy": self.mean_varentropy,
        }

    def flat_fields(self) -> dict[str, float]:
        """Scalar view with per-task entries expanded, for correlations."""
        out = {
            "score_mean": self.score_mean,
            "score_std": self.score_std,
            "retain_ratio": self.retain_ratio,
            "token_ratio": self.token_ratio,
            "distribution_drift": self.distribution_drift,
            "mean_ifd": self.mean_ifd,
            "mean_varentropy": self.mean_varentropy,
        }
        for name, value in self.score_per_task.items():
            out[f"score_per_task.{name}"] = value
        return out


def flat_field_names(benchmarks) -> list[str]:
    """The keys of ``StateVector.flat_fields()`` for a pool with these benchmarks."""
    scalars = [f.name for f in fields(StateVector) if f.name != "score_per_task"]
    return scalars + [f"score_per_task.{name}" for name in benchmarks]


def state_from_dict(doc: dict) -> StateVector:
    return StateVector(
        score_mean=float(doc["score_mean"]),
        score_std=float(doc["score_std"]),
        score_per_task={k: float(v) for k, v in doc["score_per_task"].items()},
        retain_ratio=float(doc["retain_ratio"]),
        token_ratio=float(doc["token_ratio"]),
        distribution_drift=float(doc["distribution_drift"]),
        mean_ifd=float(doc["mean_ifd"]),
        mean_varentropy=float(doc["mean_varentropy"]),
    )


def compute_snar(subset: Subset, signals: SignalTable) -> np.ndarray:
    """Fraction of valid subset samples activating each feature, (sae_dim,).

    Magnitudes are ignored; samples without any cached activation are
    excluded from the denominator. The returned array is read-only.
    """
    valid_pos = subset.positions[signals.has_activations[subset.positions]]
    if valid_pos.size == 0:
        raise StateError("no subset sample carries activation features")
    rows = signals.activations[valid_pos]
    counts = np.bincount(rows.indices, minlength=signals.sae_dim)
    rates = counts / valid_pos.size
    rates.setflags(write=False)
    return rates


def compute_state(subset: Subset, pool: CanonicalPool, signals: SignalTable) -> StateVector:
    """All eight state fields for a nonempty subset.

    Relevance mean and std aggregate over all (sample, benchmark) pairs
    jointly; std is the population standard deviation. mean_ifd and
    mean_varentropy are ratios to the (load-time) pool means, so the full
    pool maps to exactly 1.0 on both.
    """
    if len(subset) == 0:
        raise StateError("empty subset")
    pos = subset.positions
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
