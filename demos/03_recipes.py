#!/usr/bin/env python3
"""Recipes: parse, validate, execute left to right, encode, edit locally.

A recipe is an ordered program of catalog steps. Execution starts from the
full pool; the encoder flattens any recipe into a fixed-length vector for the
score surrogate; the edit generator produces one-edit siblings.
"""

import json
import tempfile

from recipesearch.operators import default_catalog
from recipesearch.pool import load_pool, load_signals
from recipesearch.recipe import (
    RecipeValidationError,
    describe_recipe,
    encode_recipe,
    execute_recipe,
    parse_recipe,
    propose_local_edits,
)
from recipesearch.operators import Subset, apply_step
from recipesearch.synthetic import write_synthetic_dataset


def main():
    workdir = tempfile.mkdtemp(prefix="recipesearch_demo_")
    paths = write_synthetic_dataset(workdir, n_samples=200, sae_dim=48, seed=9)
    pool = load_pool(paths[0])
    signals = load_signals(paths[1], paths[2], pool)
    catalog = default_catalog(len(pool))

    text = json.dumps({"steps": [
        {"operator": "ngram_topfrac", "params": {"fraction": 0.9}},
        {"operator": "mona_filter", "params": {"fraction": 0.85}},
        {"operator": "semdedup", "params": {"n_clusters": 4, "tau": 0.88, "seed": 7}},
        {"operator": "random_k", "params": {"k": 60, "seed": 42}},
    ]})
    recipe = parse_recipe(text, catalog)
    print("recipe:", describe_recipe(recipe))

    # watch the subset shrink step by step
    subset = Subset.full(pool)
    print(f"\nstart: {len(subset)} samples")
    for i, step in enumerate(recipe.steps, start=1):
        subset = apply_step(step, subset, signals)
        print(f"after step {i} ({step.operator:14s}): {len(subset)} samples")
    final = execute_recipe(recipe, signals)
    assert final.ids() == subset.ids()

    # invalid programs are rejected with every violation listed
    bad = json.dumps({"steps": [
        {"operator": "quality_llm", "params": {}},
        {"operator": "ifd_topfrac", "params": {"fraction": 1.5}},
    ]})
    try:
        parse_recipe(bad, catalog)
    except RecipeValidationError as exc:
        print("\nrejected recipe:")
        for violation in exc.violations:
            print(f"  - {violation}")

    # fixed-dimension encoding: (presence, normalized parameter) per operator
    vec = encode_recipe(recipe, catalog)
    print(f"\nencoding ({vec.size} slots for {len(catalog.entries)} operators):")
    for j, name in enumerate(catalog.names()):
        print(f"  {name:20s} presence={vec[2 * j]:.0f} param={vec[2 * j + 1]:.4f}")

    # one-edit siblings around the recipe (the proposer's fallback)
    print("\nfive one-edit siblings:")
    for sibling in propose_local_edits(recipe, rng_seed=123, count=5, catalog=catalog):
        print("  -", describe_recipe(sibling))


if __name__ == "__main__":
    main()
