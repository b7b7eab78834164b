from __future__ import annotations

import json

import numpy as np
import pytest

from recipesearch.operators import OperatorSpec, Subset, apply_step, default_catalog
from recipesearch.pool import load_pool, load_signals
from recipesearch.recipe import (
    ExecutionError,
    Recipe,
    RecipeValidationError,
    encode_recipe,
    execute_recipe,
    parse_recipe,
    propose_local_edits,
    recipe_to_obj,
    sample_random_recipe,
    validate_recipe,
)
from recipesearch.synthetic import write_synthetic_dataset

from conftest import write_jsonl


class StubHistory:
    def __init__(self, mapping):
        self.mapping = mapping

    def resolve_source(self, ref):
        return self.mapping.get(ref)


@pytest.fixture()
def catalog(tiny):
    pool, _ = tiny
    return default_catalog(len(pool))


class TestParse:
    def test_single_step(self, catalog):
        text = '{"steps":[{"operator":"ngram_topfrac","params":{"fraction":0.9}}]}'
        recipe = parse_recipe(text, catalog)
        assert len(recipe) == 1
        assert recipe.steps[0].operator == "ngram_topfrac"

    def test_unknown_operator(self, catalog):
        text = '{"steps":[{"operator":"quality_llm","params":{}}]}'
        with pytest.raises(RecipeValidationError, match="unknown operator"):
            parse_recipe(text, catalog)

    def test_fraction_out_of_bounds(self, catalog):
        text = '{"steps":[{"operator":"ifd_topfrac","params":{"fraction":1.5}}]}'
        with pytest.raises(RecipeValidationError, match=r"fraction out of \(0,1\]"):
            parse_recipe(text, catalog)

    def test_length_cap(self, catalog):
        steps = [{"operator": "ifd_topfrac", "params": {"fraction": 0.9}}] * 6
        with pytest.raises(RecipeValidationError, match="exceeds L_max"):
            parse_recipe(json.dumps({"steps": steps}), catalog, l_max=5)

    def test_malformed_json(self, catalog):
        with pytest.raises(RecipeValidationError, match="malformed JSON"):
            parse_recipe("{steps: oops", catalog)

    def test_rejection_lists_every_violation(self, catalog):
        steps = [
            {"operator": "ifd_topfrac", "params": {"fraction": 2.0}},
            {"operator": "nope", "params": {}},
        ]
        with pytest.raises(RecipeValidationError) as err:
            parse_recipe(json.dumps({"steps": steps}), catalog)
        assert len(err.value.violations) == 2

    def test_two_mix_steps_rejected(self, catalog):
        steps = [
            {"operator": "mix", "params": {"source": "incumbent"}},
            {"operator": "mix", "params": {"source": "eval:1"}},
        ]
        with pytest.raises(RecipeValidationError, match="at most one mix"):
            parse_recipe(json.dumps({"steps": steps}), catalog)

    def test_single_element_array_form_accepted(self, catalog):
        text = '[{"steps":[{"operator":"ngram_topfrac","params":{"fraction":0.9}}]}]'
        assert len(parse_recipe(text, catalog)) == 1

    def test_multi_recipe_array_rejected(self, catalog):
        step = {"operator": "ngram_topfrac", "params": {"fraction": 0.9}}
        text = json.dumps([{"steps": [step]}, {"steps": [step]}])
        with pytest.raises(RecipeValidationError, match="expected exactly one"):
            parse_recipe(text, catalog)

    def test_round_trip(self, catalog):
        recipes = [
            Recipe((OperatorSpec("ngram_topfrac", {"fraction": 0.9}),)),
            Recipe((
                OperatorSpec("semdedup", {"n_clusters": 2, "tau": 0.8, "seed": 7}),
                OperatorSpec("random_k", {"k": 3, "seed": 42}),
            )),
            Recipe((OperatorSpec("mix", {"source": "eval:2"}),)),
        ]
        for recipe in recipes:
            assert parse_recipe(json.dumps(recipe_to_obj(recipe)), catalog) == recipe


class TestExecute:
    def test_identity_fraction_returns_full_pool(self, tiny, catalog):
        pool, signals = tiny
        recipe = parse_recipe(
            '{"steps":[{"operator":"ifd_topfrac","params":{"fraction":1.0}}]}', catalog
        )
        out = execute_recipe(recipe, pool, signals)
        assert out.ids() == Subset.full(pool).ids()

    def test_two_step_fraction_composition(self, tmp_path):
        paths = write_synthetic_dataset(str(tmp_path), n_samples=100, sae_dim=16, seed=2)
        pool = load_pool(paths[0])
        signals = load_signals(paths[1], paths[2], pool)
        catalog = default_catalog(len(pool))
        steps = [
            {"operator": "ifd_topfrac", "params": {"fraction": 0.5}},
            {"operator": "ngram_topfrac", "params": {"fraction": 0.5}},
        ]
        out = execute_recipe(
            parse_recipe(json.dumps({"steps": steps}), catalog), pool, signals
        )
        assert len(out) == 25  # 100 -> 50 -> 25 by ceil arithmetic

    def test_order_sensitivity_witness(self, tmp_path):
        # scores engineered so the two orders keep different survivors
        rows = [{"id": i, "instruction": "q", "response": "r", "source": "s"}
                for i in ("a", "b", "c", "d")]
        sigs = [
            {"id": "a", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": [[0, 1.0]]},
            {"id": "b", "ifd": 0.75, "varentropy": 1.0, "ao": 2.0, "sparse": [[1, 1.0]]},
            {"id": "c", "ifd": 0.5, "varentropy": 1.0, "ao": 4.0, "sparse": [[2, 1.0]]},
            {"id": "d", "ifd": 0.25, "varentropy": 1.0, "ao": 3.0, "sparse": [[3, 1.0]]},
        ]
        targets = {"sae_dim": 8, "benchmarks": {"t": [[0, 1.0]]}}
        write_jsonl(tmp_path / "p.jsonl", rows)
        write_jsonl(tmp_path / "s.jsonl", sigs)
        (tmp_path / "t.json").write_text(json.dumps(targets))
        pool = load_pool(str(tmp_path / "p.jsonl"))
        signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
        catalog = default_catalog(len(pool))
        ifd_then_ao = Recipe((
            OperatorSpec("ifd_topfrac", {"fraction": 0.5}),
            OperatorSpec("ao_topfrac", {"fraction": 0.25}),
        ))
        ao_then_ifd = Recipe((
            OperatorSpec("ao_topfrac", {"fraction": 0.5}),
            OperatorSpec("ifd_topfrac", {"fraction": 0.25}),
        ))
        assert not validate_recipe(ifd_then_ao, catalog)
        first = execute_recipe(ifd_then_ao, pool, signals)
        second = execute_recipe(ao_then_ifd, pool, signals)
        assert first.ids() == ["b"]
        assert second.ids() == ["c"]

    def test_mix_resolves_history(self, tiny, catalog):
        pool, signals = tiny
        history = StubHistory({"incumbent": Subset.from_ids(["d"], pool)})
        recipe = Recipe((
            OperatorSpec("ifd_topfrac", {"fraction": 0.5}),
            OperatorSpec("mix", {"source": "incumbent"}),
        ))
        out = execute_recipe(recipe, pool, signals, history)
        assert sorted(out.ids()) == ["a", "c", "d"]  # top-2 ifd is {a, c}

    def test_mix_without_history_aborts_with_step_index(self, tiny, catalog):
        pool, signals = tiny
        recipe = Recipe((OperatorSpec("mix", {"source": "incumbent"}),))
        with pytest.raises(ExecutionError, match="step 1: unresolvable mix source"):
            execute_recipe(recipe, pool, signals)

    def test_step_error_carries_index(self, tiny, catalog):
        pool, signals = tiny
        recipe = Recipe((
            OperatorSpec("ifd_topfrac", {"fraction": 0.25}),
            OperatorSpec("semdedup", {"n_clusters": 3, "tau": 0.5, "seed": 0}),
        ))
        with pytest.raises(ExecutionError, match="step 2: n_clusters 3 exceeds"):
            execute_recipe(recipe, pool, signals)

    def test_empty_intermediate_aborts(self, tiny, catalog, monkeypatch):
        pool, signals = tiny
        import recipesearch.recipe as recipe_mod

        def empty_step(spec, subset, signals, resolve_source=None):
            return Subset(np.empty(0, dtype=np.int64), pool)

        monkeypatch.setattr(recipe_mod, "apply_step", empty_step)
        recipe = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
        with pytest.raises(ExecutionError, match="step 1: empty intermediate subset"):
            execute_recipe(recipe, pool, signals)

    def test_containment_of_single_operator_recipes(self, synth):
        pool, signals = synth
        catalog = default_catalog(len(pool))
        specs = [
            OperatorSpec("mona_filter", {"fraction": 0.1}),
            OperatorSpec("ifd_topfrac", {"fraction": 0.35}),
            OperatorSpec("varentropy_topfrac", {"fraction": 0.35}),
            OperatorSpec("ngram_topfrac", {"fraction": 0.35}),
            OperatorSpec("ao_topfrac", {"fraction": 0.35}),
            OperatorSpec("semdedup", {"n_clusters": 4, "tau": 0.9, "seed": 13}),
            OperatorSpec("random_k", {"k": 77, "seed": 3}),
        ]
        full = Subset.full(pool)
        for spec in specs:
            standalone = apply_step(spec, full, signals)
            as_recipe = execute_recipe(Recipe((spec,)), pool, signals)
            assert as_recipe.ids() == standalone.ids()


class TestEncode:
    def test_three_operator_catalog_reference_vector(self, tiny):
        # relevance filter on, dedup off, size control targeting 0.30 of a
        # 10-sample pool: the canonical (presence, parameter) interleaving
        catalog = default_catalog(
            10, operators=("mona_filter", "semdedup", "random_k")
        )
        recipe = Recipe((
            OperatorSpec("mona_filter", {"fraction": 0.70}),
            OperatorSpec("random_k", {"k": 3, "seed": 0}),
        ))
        got = encode_recipe(recipe, catalog)
        assert got.tolist() == [1.0, 0.70, 0.0, 0.00, 1.0, 0.30]

    def test_unused_operator_slots_are_zero(self, catalog):
        recipe = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
        vec = encode_recipe(recipe, catalog)
        names = catalog.names()
        for j, name in enumerate(names):
            if name != "ifd_topfrac":
                assert vec[2 * j] == 0.0 and vec[2 * j + 1] == 0.0

    def test_last_occurrence_wins(self, catalog):
        recipe = Recipe((
            OperatorSpec("ifd_topfrac", {"fraction": 0.4}),
            OperatorSpec("ngram_topfrac", {"fraction": 0.9}),
            OperatorSpec("ifd_topfrac", {"fraction": 0.8}),
        ))
        vec = encode_recipe(recipe, catalog)
        j = catalog.names().index("ifd_topfrac")
        # hand-walked: presence 1, parameter slot from the later step
        assert vec[2 * j] == 1.0
        assert vec[2 * j + 1] == 0.8

    def test_dimension_depends_only_on_catalog(self, tiny, catalog):
        pool, _ = tiny
        rng = np.random.default_rng(0)
        dims = {
            encode_recipe(sample_random_recipe(catalog, rng), catalog).size
            for _ in range(10)
        }
        assert dims == {2 * len(catalog.entries)}

    def test_mix_presence_slot(self, catalog):
        recipe = Recipe((OperatorSpec("mix", {"source": "incumbent"}),))
        vec = encode_recipe(recipe, catalog)
        j = catalog.names().index("mix")
        assert vec[2 * j] == 1.0 and vec[2 * j + 1] == 0.5


def one_edit_kind(seed: Recipe, sibling: Recipe) -> str:
    """Independent check that two recipes differ by exactly one edit."""
    a, b = list(seed.steps), list(sibling.steps)
    if len(b) == len(a) + 1:
        for i in range(len(b)):
            if b[:i] + b[i + 1:] == a:
                return "insert"
    if len(b) == len(a) - 1:
        for i in range(len(a)):
            if a[:i] + a[i + 1:] == b:
                return "delete"
    if len(b) == len(a):
        diffs = [i for i in range(len(a)) if a[i] != b[i]]
        if (
            len(diffs) == 2
            and diffs[1] == diffs[0] + 1
            and a[diffs[0]] == b[diffs[1]]
            and a[diffs[1]] == b[diffs[0]]
        ):
            return "swap"
        if len(diffs) == 1 and a[diffs[0]].operator == b[diffs[0]].operator:
            return "retune"
    return "not-one-edit"


FOUR_STEP_SEED = Recipe((
    OperatorSpec("ngram_topfrac", {"fraction": 0.9}),
    OperatorSpec("mona_filter", {"fraction": 0.85}),
    OperatorSpec("semdedup", {"n_clusters": 3, "tau": 0.88, "seed": 1}),
    OperatorSpec("random_k", {"k": 45, "seed": 42}),
))


class TestLocalEdits:
    def test_length_one_seed_limits_edit_kinds(self, catalog):
        seed = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
        for rng_seed in range(20):
            for sibling in propose_local_edits(seed, rng_seed, 3, catalog):
                assert one_edit_kind(seed, sibling) in ("insert", "retune")

    def test_determinism(self, catalog):
        first = propose_local_edits(FOUR_STEP_SEED, 123, 5, catalog)
        second = propose_local_edits(FOUR_STEP_SEED, 123, 5, catalog)
        assert [recipe_to_obj(r) for r in first] == [recipe_to_obj(r) for r in second]

    def test_five_distinct_one_edit_siblings(self, catalog):
        siblings = propose_local_edits(FOUR_STEP_SEED, 7, 5, catalog)
        assert len(siblings) == 5
        assert len(set(siblings)) == 5
        for sibling in siblings:
            assert one_edit_kind(FOUR_STEP_SEED, sibling) != "not-one-edit"
            assert not validate_recipe(sibling, catalog)

    def test_insert_weights_bias(self, catalog):
        seed = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
        heavy = {name: 0.0 for name in catalog.names()}
        heavy["ao_topfrac"] = 10.0
        inserted = []
        for rng_seed in range(40):
            for sib in propose_local_edits(
                seed, rng_seed, 1, catalog, insert_weights=heavy
            ):
                if one_edit_kind(seed, sib) == "insert":
                    new_ops = [s.operator for s in sib.steps if s.operator != "ifd_topfrac"]
                    inserted.extend(new_ops)
        assert inserted and set(inserted) == {"ao_topfrac"}

    def test_serialized_obj_shape(self):
        obj = recipe_to_obj(FOUR_STEP_SEED)
        assert list(obj) == ["steps"]
        assert [s["operator"] for s in obj["steps"]][0] == "ngram_topfrac"
