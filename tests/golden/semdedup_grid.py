"""SemDedup keep masks and k-means labels over a fixed grid.

``python tests/golden/semdedup_grid.py`` (with ``src`` on ``PYTHONPATH``)
rewrites ``semdedup_grid.npz`` next to this file from the current code;
``tests/test_golden.py`` recomputes the grid and compares it with
``np.array_equal``. The grid crosses three synthetic pools with planted
exact and scaled duplicates, five cluster counts, eight thresholds and two
seeds, so a change in the clustering or in the greedy pass, down to the
last bit of one cosine, shows here.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from recipesearch import operators
from recipesearch.operators import Subset, apply_semdedup
from recipesearch.pool import load_pool, load_signals
from recipesearch.synthetic import write_synthetic_dataset

FIXTURE = Path(__file__).with_suffix(".npz")

# (n_samples, sae_dim, dataset seed)
POOLS = ((200, 64, 1), (1000, 64, 2), (4000, 256, 3))
N_CLUSTERS = (1, 2, 5, 16, 32)
TAUS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)
SEEDS = (0, 7)


def build_pool(n: int, dim: int, seed: int, work_dir: str):
    """A synthetic pool where every 7th sample (from the 4th) repeats the
    activations of the sample 3 rows above it and every 7th (from the 6th)
    repeats those 5 rows above it scaled by 3."""
    pool_path, signals_path, targets_path = write_synthetic_dataset(
        work_dir, n_samples=n, sae_dim=dim, seed=seed
    )
    rows = [json.loads(line) for line in Path(signals_path).read_text().splitlines()]
    for i, row in enumerate(rows):
        if i % 7 == 3:
            row["sparse"] = rows[i - 3]["sparse"]
        elif i % 7 == 5:
            row["sparse"] = [[f, v * 3.0] for f, v in rows[i - 5]["sparse"]]
    Path(signals_path).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    pool = load_pool(pool_path)
    return pool, load_signals(signals_path, targets_path, pool)


@contextlib.contextmanager
def captured_labels():
    """Record the labels each ``minibatch_kmeans`` call returns."""
    real = operators.minibatch_kmeans
    seen: list[np.ndarray] = []

    def spy(*args, **kwargs):
        labels = real(*args, **kwargs)
        seen.append(labels)
        return labels

    operators.minibatch_kmeans = spy
    try:
        yield seen
    finally:
        operators.minibatch_kmeans = real


def compute_grid() -> dict[str, np.ndarray]:
    """Labels ``(cluster count, seed, row)`` and packed keep masks
    ``(cluster count, seed, tau, row bits)`` per pool."""
    out: dict[str, np.ndarray] = {}
    for n, dim, data_seed in POOLS:
        with tempfile.TemporaryDirectory() as tmp:
            pool, signals = build_pool(n, dim, data_seed, tmp)
        subset = Subset.full(pool)
        labels = np.zeros((len(N_CLUSTERS), len(SEEDS), n), dtype=np.int8)
        masks = np.zeros((len(N_CLUSTERS), len(SEEDS), len(TAUS), n), dtype=bool)
        for a, k in enumerate(N_CLUSTERS):
            for b, seed in enumerate(SEEDS):
                with captured_labels() as seen:
                    for c, tau in enumerate(TAUS):
                        kept = apply_semdedup(subset, signals, k, tau, seed)
                        masks[a, b, c, kept.positions] = True
                assert len(seen) == len(TAUS)
                assert all(np.array_equal(seen[0], other) for other in seen)
                labels[a, b] = seen[0]
        out[f"labels_{n}x{dim}"] = labels
        out[f"masks_{n}x{dim}"] = np.packbits(masks, axis=-1)
    return out


if __name__ == "__main__":
    np.savez_compressed(FIXTURE, **compute_grid())
    print(f"wrote {FIXTURE}", file=sys.stderr)
