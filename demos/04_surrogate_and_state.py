#!/usr/bin/env python3
"""State vectors and the GP score surrogate.

Every materialized candidate gets an eight-field state summary; evaluated
recipes feed a small exact GP over recipe encodings that prices candidates
before the next expensive evaluation.
"""

import json
import tempfile

import numpy as np

from recipesearch.operators import OperatorSpec, Subset, default_catalog
from recipesearch.pool import load_pool, load_signals
from recipesearch.recipe import Recipe, encode_recipe, execute_recipe
from recipesearch.state import compute_state
from recipesearch.surrogate import fit_gp, predict_gp
from recipesearch.synthetic import write_synthetic_dataset


def main():
    workdir = tempfile.mkdtemp(prefix="recipesearch_demo_")
    paths = write_synthetic_dataset(workdir, n_samples=200, sae_dim=48, seed=13)
    pool = load_pool(paths[0])
    signals = load_signals(paths[1], paths[2], pool)
    catalog = default_catalog(len(pool))

    # the full pool is the reference point: ratios 1, drift 0
    reference = compute_state(Subset.full(pool), signals)
    print("state of the full pool:")
    print(json.dumps(reference.to_dict(), indent=2, sort_keys=True))

    half = Recipe((OperatorSpec("ngram_topfrac", {"fraction": 0.5}),))
    state = compute_state(execute_recipe(half, pool, signals), signals)
    print("\nstate after keeping the top half by entropy:")
    print(json.dumps(state.to_dict(), indent=2, sort_keys=True))

    # fit the surrogate on a handful of (encoding, score) observations
    fracs = [0.2, 0.4, 0.6, 0.8, 1.0]
    encodings, scores = [], []
    for f in fracs:
        recipe = Recipe((OperatorSpec("ngram_topfrac", {"fraction": f}),))
        subset = execute_recipe(recipe, pool, signals)
        s = compute_state(subset, signals)
        encodings.append(encode_recipe(recipe, catalog))
        scores.append(1.0 - (s.retain_ratio - 0.5) ** 2)  # a planted objective
    model = fit_gp(np.stack(encodings), np.array(scores))

    print("\nGP over the fraction axis (planted optimum at 0.5):")
    print("fraction |   mu    | sigma   | note")
    for f in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        recipe = Recipe((OperatorSpec("ngram_topfrac", {"fraction": f}),))
        mu, sigma = predict_gp(model, encode_recipe(recipe, catalog))
        note = "training point" if f in fracs else "interpolated"
        print(f"  {f:.2f}   | {mu:.4f}  | {sigma:.4f}  | {note}")

    far = Recipe((OperatorSpec("random_k", {"k": 10, "seed": 0}),))
    mu, sigma = predict_gp(model, encode_recipe(far, catalog))
    print(f"\nfar from all observations (different operator): "
          f"mu reverts to the score mean ({np.mean(scores):.4f}): mu={mu:.4f}, "
          f"sigma grows to {sigma:.4f}")


if __name__ == "__main__":
    main()
