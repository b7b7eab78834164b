"""Exact Gaussian-process regression over recipe encodings.

The surrogate supplies a cheap (mu, sigma) prior per candidate from the
handful of scores observed so far. Encodings are already in [0, 1] per
dimension, so the kernel uses fixed hyperparameters sized to that cube:
isotropic squared-exponential with length scale 0.5 * sqrt(dim), unit signal
variance, and a 1e-4 noise jitter. Scores are centered, and scaled to unit
variance when there are at least two distinct values; with this sample size
(budgets around 15) hyperparameter optimization would be noise, so the model
is refit from scratch each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

SIGNAL_VARIANCE = 1.0
NOISE_VARIANCE = 1e-4


class SurrogateError(ValueError):
    """Raised on dimension mismatches or non-finite training scores."""


@dataclass(frozen=True)
class GpModel:
    inputs: np.ndarray         # (t, d)
    alpha: np.ndarray          # (t,) solve of (K + noise I) against centered scores
    chol: np.ndarray           # lower Cholesky factor of K + noise I
    y_mean: float
    y_scale: float

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-exponential kernel with length scale 0.5 * sqrt(dim)."""
    length_scale = 0.5 * math.sqrt(a.shape[1])
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return SIGNAL_VARIANCE * np.exp(-d2 / (2.0 * length_scale**2))


def fit_gp(encodings, scores) -> GpModel:
    """Fit the exact GP on (encoding, score) observations.

    Scores are centered on their mean and divided by their population
    standard deviation when that is nonzero; a single observation or a
    constant score column keeps unit scale so de-standardization stays exact.
    """
    x = np.asarray(encodings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise SurrogateError("need at least one observation with a common dimension")
    y = np.asarray(scores, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise SurrogateError(
            f"scores shape {y.shape} does not match {x.shape[0]} encodings"
        )
    if not np.isfinite(y).all():
        raise SurrogateError("non-finite score")
    if not np.isfinite(x).all():
        raise SurrogateError("non-finite encoding")
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y.shape[0] < 2 or y_scale == 0.0:
        y_scale = 1.0
    y_std = (y - y_mean) / y_scale
    gram = _kernel(x, x)
    gram[np.diag_indices_from(gram)] += NOISE_VARIANCE
    chol = np.linalg.cholesky(gram)
    alpha = cho_solve((chol, True), y_std)
    return GpModel(inputs=x, alpha=alpha, chol=chol, y_mean=y_mean, y_scale=y_scale)


def predict_gp(model: GpModel, encoding) -> tuple[float, float]:
    """De-standardized posterior mean and standard deviation at one encoding."""
    q = np.asarray(encoding, dtype=np.float64).reshape(1, -1)
    if q.shape[1] != model.dim:
        raise SurrogateError(
            f"encoding dimension {q.shape[1]} does not match model dimension {model.dim}"
        )
    k_star = _kernel(model.inputs, q).ravel()
    mu_std = float(k_star @ model.alpha)
    v = solve_triangular(model.chol, k_star, lower=True)
    var = SIGNAL_VARIANCE - float(v @ v)
    var = max(var, 0.0)
    return model.y_mean + model.y_scale * mu_std, model.y_scale * math.sqrt(var)
