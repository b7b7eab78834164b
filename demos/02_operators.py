#!/usr/bin/env python3
"""Tour of the operator library: every operator is subset in, subset out.

Shows the selectors, benchmark-relevance union, near-duplicate removal at a
few thresholds, the seeded random sampler, and set union.
"""

import tempfile

from recipesearch.operators import (
    SELECTOR_COLUMNS,
    Subset,
    apply_mix,
    apply_mona_union,
    apply_random_k,
    apply_semdedup,
    apply_top_fraction,
)
from recipesearch.pool import load_pool, load_signals
from recipesearch.synthetic import write_synthetic_dataset


def main():
    workdir = tempfile.mkdtemp(prefix="recipesearch_demo_")
    paths = write_synthetic_dataset(workdir, n_samples=200, sae_dim=48, seed=5)
    pool = load_pool(paths[0])
    signals = load_signals(paths[1], paths[2], pool)
    full = Subset.full(pool)
    print(f"full pool: {len(full)} samples")

    # scalar-signal selectors are one routine over the ranks of different
    # columns, built on first use (rank 0 is the highest score)
    for column in SELECTOR_COLUMNS.values():
        kept = apply_top_fraction(full, signals.rank(column), 0.3)
        print(f"top 30% by {column:14s} -> {len(kept):3d} samples "
              f"(first ids: {', '.join(kept.ids()[:4])})")

    # relevance is the weighted Jaccard of a sample's sparse activations with
    # each benchmark target, one row per sample, computed once at load
    row = ", ".join(f"{b} {r:.4f}" for b, r in zip(signals.benchmarks, signals.relevance[0]))
    print(f"\nrelevance of sample {pool.ids[0]}: {row}")

    kept = apply_mona_union(full, signals, 0.1)
    print(f"per-benchmark top 10% unioned over {len(signals.benchmarks)} "
          f"benchmarks -> {len(kept)} samples")

    # near-duplicate removal: tighter thresholds drop more
    print()
    for tau in (0.99, 0.9, 0.7):
        kept = apply_semdedup(full, signals, n_clusters=6, tau=tau, seed=1)
        print(f"semdedup tau={tau:4.2f} -> kept {len(kept):3d} of {len(full)}")

    # the stochastic escape is a pure function of its seed
    print()
    for seed in (42, 42, 256):
        kept = apply_random_k(full, k=8, seed=seed)
        print(f"random_k seed={seed:3d} -> {kept.ids()}")

    # mix unions two subsets by id, duplicates kept once
    left = apply_random_k(full, k=30, seed=0)
    right = apply_random_k(full, k=30, seed=1)
    union = apply_mix(left, right)
    print(f"\nmix of two 30-sample draws -> {len(union)} unique samples")

    # closure: nothing an operator returns leaves the input subset
    assert set(union.ids()) <= set(full.ids())
    print("closure holds: every output id came from the input")


if __name__ == "__main__":
    main()
