#!/usr/bin/env python3
"""Walk through pool ingestion: canonicalization, cached signals, native entropy.

Generates a small synthetic dataset (pool + signals + benchmark targets),
loads it through the real ingestion path, and pokes at what came out.
"""

import tempfile

import numpy as np

from recipesearch.pool import load_pool, load_signals
from recipesearch.synthetic import write_synthetic_dataset


def main():
    workdir = tempfile.mkdtemp(prefix="recipesearch_demo_")
    pool_path, signals_path, targets_path = write_synthetic_dataset(
        workdir, n_samples=150, sae_dim=48, seed=3
    )
    print(f"dataset written under {workdir}")

    pool = load_pool(pool_path)
    print(f"\npool: {len(pool)} samples, {pool.total_tokens} whitespace tokens")
    print(f"content digest: {pool.content_digest()[:16]}...")

    # the pool is columnar: position 0 of each column is the first record
    print(f"\nfirst sample (id={pool.ids[0]}, source={pool.sources[0]}, "
          f"{pool.token_counts[0]} tokens):")
    print(f"  instruction: {pool.instructions[0]!r}")
    print(f"  response:    {pool.responses[0]!r}")

    signals = load_signals(signals_path, targets_path, pool)
    print(f"\nsignals: sae_dim={signals.sae_dim}, "
          f"benchmarks={', '.join(signals.benchmarks)}")
    print(f"pool mean ifd        = {signals.pool_mean_ifd:.4f}")
    print(f"pool mean varentropy = {signals.pool_mean_varentropy:.4f}")

    # unigram entropy is computed natively from the pool text; the signal
    # table's column is the pool's
    h = pool.ngram_entropy
    print(f"\nnative unigram entropy (bits): min={h.min():.3f} "
          f"mean={h.mean():.3f} max={h.max():.3f}")

    # benchmark-conditioned relevance was precomputed for every (sample, benchmark)
    for j, name in enumerate(signals.benchmarks):
        col = signals.relevance[:, j]
        print(f"relevance vs {name:8s}: mean={col.mean():.4f} "
              f"top sample id={pool.ids[int(np.argmax(col))]}")

    # activation-rate profile of the whole pool (drift reference point)
    print(f"\npool activation rates: {np.count_nonzero(signals.pool_snar)} of "
          f"{signals.sae_dim} features ever active")


if __name__ == "__main__":
    main()
