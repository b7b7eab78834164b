from __future__ import annotations

import dataclasses
import json
import logging
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from recipesearch import controller
from recipesearch.controller import (
    Candidate,
    ControllerError,
    EvalRecord,
    Guidance,
    SearchConfig,
    average_ranks,
    fallback_rank,
    fallback_reseed,
    fallback_summarize,
    motif_signals,
    run_search,
    state_correlations,
)
from recipesearch.operators import MIX, OperatorSpec, Subset, default_catalog, validate_spec
from recipesearch.oracle import (
    EvalOutcome,
    OracleError,
    SyntheticOracle,
    SyntheticOracleSpec,
)
from recipesearch.recipe import (
    DEFAULT_L_MAX,
    ExecutionError,
    ProposeError,
    Recipe,
    execute_recipe,
    propose_local_edits,
    recipe_to_obj,
    sample_random_recipe,
    size_range,
    validate_recipe,
)
from recipesearch.state import StateError, StateVector, compute_state

from conftest import make_synthetic_pool


@pytest.fixture(scope="module")
def small_pool():
    return make_synthetic_pool(n_samples=120, sae_dim=32, seed=7)


@pytest.fixture(scope="module")
def thousand_pool():
    # 1000 samples, so retain ratios such as 0.001 and 0.4 are exact sizes
    return make_synthetic_pool(n_samples=1000, sae_dim=8, seed=7)[0]


def constant_oracle(value=10.0):
    return SyntheticOracle(SyntheticOracleSpec(family="constant", value=value))


class ImprovingOracle:
    """Strictly increasing scores, one per evaluation request."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, request, state):
        from recipesearch.oracle import EvalOutcome

        self.calls += 1
        return EvalOutcome(score=float(self.calls))


class ScriptedOracle:
    """Replays a fixed score sequence in evaluation order."""

    def __init__(self, scores):
        self.scores = list(scores)
        self.calls = 0

    def evaluate(self, request, state):
        from recipesearch.oracle import EvalOutcome

        score = self.scores[self.calls]
        self.calls += 1
        return EvalOutcome(score=float(score))


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, request, state):
        self.calls += 1
        return self.inner.evaluate(request, state)


def make_state(retain=0.5, **over):
    base = dict(
        score_mean=0.4, score_std=0.1, score_per_task={"g": 0.4},
        retain_ratio=retain, token_ratio=retain, distribution_drift=0.1,
        mean_ifd=1.0, mean_varentropy=1.0,
    )
    base.update(over)
    return StateVector(**base)


def make_record(step, ops, score, retain=0.5, state=None):
    recipe = Recipe(tuple(OperatorSpec(name, dict(params)) for name, params in ops))
    return EvalRecord(
        step=step,
        recipe=recipe,
        encoding=np.zeros(4),
        state=state or make_state(retain=retain),
        score=float(score),
        per_benchmark=None,
        subset_size=10,
        subset_hash=f"hash{step}",
        seed_phase=1,
        is_warmup=step <= 3,
    )


FR = ("ifd_topfrac", {"fraction": 0.5})


def run_warmup(config, pool, signals, oracle):
    """The three warmup probes of a run, and its initial seed anchor."""
    rt = controller._Runtime(config, signals, oracle, default_catalog(len(pool)), None)
    anchor = controller._run_warmup(rt)
    return rt.records, anchor


class TestWarmup:
    def test_three_probes_one_per_bin(self, small_pool):
        pool, signals = small_pool
        config = SearchConfig(budget=5, master_seed=1)
        records, anchor = run_warmup(config, pool, signals, constant_oracle())
        assert len(records) == 3
        ratios = [r.state.retain_ratio for r in records]
        assert ratios[0] <= 1 / 3
        assert 1 / 3 < ratios[1] <= 2 / 3
        assert ratios[2] > 2 / 3
        assert all(r.is_warmup for r in records)

    def test_anchor_is_argmax_ties_earliest(self, small_pool):
        pool, signals = small_pool
        config = SearchConfig(budget=5, master_seed=1)
        records, anchor = run_warmup(config, pool, signals, constant_oracle())
        # constant scores: the earliest probe wins the tie
        assert anchor == records[0].recipe

        oracle = ImprovingOracle()
        records, anchor = run_warmup(config, pool, signals, oracle)
        assert anchor == records[2].recipe

    def test_anchor_middle_probe_wins(self, small_pool):
        pool, signals = small_pool
        config = SearchConfig(budget=5, master_seed=1)
        records, anchor = run_warmup(config, pool, signals,
                                     ScriptedOracle([10.0, 30.0, 20.0]))
        assert [r.score for r in records] == [10.0, 30.0, 20.0]
        assert anchor == records[1].recipe

    def test_deterministic_given_master_seed(self, small_pool):
        pool, signals = small_pool
        config = SearchConfig(budget=5, master_seed=9)
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0}, targets={"retain_ratio": 0.4},
        )
        first, anchor_a = run_warmup(config, pool, signals, SyntheticOracle(spec))
        second, anchor_b = run_warmup(config, pool, signals, SyntheticOracle(spec))
        assert anchor_a == anchor_b
        assert [r.score for r in first] == [r.score for r in second]
        assert [r.subset_hash for r in first] == [r.subset_hash for r in second]

    def test_budget_must_exceed_warmup(self, small_pool):
        pool, signals = small_pool
        with pytest.raises(ControllerError, match="budget must exceed warmup"):
            run_search(SearchConfig(budget=3), pool, signals, constant_oracle())

    def test_signals_of_another_pool_refused_before_any_evaluation(self, pools_a_b):
        (_, signals_a), (pool_b, _) = pools_a_b
        oracle, events = CountingOracle(constant_oracle()), []
        with pytest.raises(ControllerError, match="signals of another pool"):
            run_search(SearchConfig(budget=5), pool_b, signals_a, oracle, sink=events.append)
        assert oracle.calls == 0 and events == []

    def test_negative_master_seed_rejected(self):
        # numpy's SeedSequence takes no negative entropy
        with pytest.raises(ControllerError, match="master_seed must be >= 0, got -1"):
            SearchConfig(budget=5, master_seed=-1).validate()


class TestSearchStructure:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_aborts_before_it_is_recorded(self, small_pool, bad):
        pool, signals = small_pool
        events = []
        oracle = ScriptedOracle([1.0, bad])
        with pytest.raises(OracleError, match="non-finite score from the oracle"):
            run_search(SearchConfig(budget=6, master_seed=2), pool, signals, oracle,
                       sink=events.append)
        assert oracle.calls == 2
        assert [e["score"] for e in events if e["type"] == "eval"] == [1.0]

    def test_constant_oracle_contract(self, small_pool):
        pool, signals = small_pool
        events = []
        config = SearchConfig(budget=15, patience=4, candidates_per_step=5,
                              master_seed=2)
        result = run_search(config, pool, signals, constant_oracle(),
                            sink=events.append)
        assert len(result.records) == 15
        assert sum(1 for r in result.records if r.is_warmup) == 3
        # all scores equal: the incumbent is the very first record
        assert result.incumbent_step == 1
        reseed_steps = [e["step"] for e in events if e["type"] == "reseed"]
        assert reseed_steps == [7, 11, 15]

    def test_improving_oracle_no_reseeds(self, small_pool):
        pool, signals = small_pool
        events = []
        config = SearchConfig(budget=10, master_seed=3)
        oracle = ImprovingOracle()
        result = run_search(config, pool, signals, oracle, sink=events.append)
        assert [e for e in events if e["type"] == "reseed"] == []
        assert result.incumbent_step == 10
        # a cache hit repeats an earlier score and spends no oracle call
        cache_hits = sum(e["cache_hit"] for e in events if e["type"] == "eval")
        assert result.incumbent_score == oracle.calls
        assert oracle.calls + cache_hits == config.budget

    def test_incumbent_subset_is_the_evaluated_subset(self, small_pool):
        pool, signals = small_pool
        result = run_search(SearchConfig(budget=6, master_seed=3), pool, signals,
                            ImprovingOracle())
        [incumbent] = [r for r in result.records if r.step == result.incumbent_step]
        assert result.incumbent_subset.pool is pool
        assert result.incumbent_subset.content_hash() == incumbent.subset_hash
        assert result.incumbent_ids == result.incumbent_subset.ids()

    def test_fallback_decisions_do_not_read_the_summary(self, small_pool, monkeypatch):
        """The summarizer's findings are a record: replacing them changes no
        evaluation, candidate or reseed."""
        pool, signals = small_pool
        spec = SyntheticOracleSpec(family="planted_quadratic", weights={"retain_ratio": 1.0},
                                   targets={"retain_ratio": 0.5})
        config = SearchConfig(budget=12, patience=2, master_seed=5)

        def decisions():
            events = []
            run_search(config, pool, signals, SyntheticOracle(spec), sink=events.append)
            return [e for e in events if e["type"] in ("eval", "candidates", "reseed")]

        unpatched = decisions()
        monkeypatch.setattr(controller, "fallback_summarize",
                            lambda history, catalog: Guidance(findings=["x"]))
        assert decisions() == unpatched
        assert any(e["type"] == "reseed" for e in unpatched)

    def test_budget_exactness_and_no_oracle_in_materialization(self, small_pool):
        pool, signals = small_pool
        oracle = CountingOracle(constant_oracle())
        events = []
        config = SearchConfig(budget=12, master_seed=4)
        result = run_search(config, pool, signals, oracle, sink=events.append)
        evals = [e for e in events if e["type"] == "eval"]
        cache_hits = sum(1 for e in evals if e["cache_hit"])
        assert len(result.records) == 12
        assert len(evals) == 12
        assert oracle.calls + cache_hits == 12
        assert oracle.calls <= 12

    def test_search_without_a_sink_hashes_only_the_subsets_it_evaluates(self, monkeypatch):
        # a sink's candidates events hash every candidate; without a sink none is built
        pool, signals = make_synthetic_pool(n_samples=2000, sae_dim=32, seed=7)
        digests = []
        real_hash = Subset.content_hash

        def counting_hash(subset):
            digests.append(subset._digest is None)
            return real_hash(subset)

        monkeypatch.setattr(Subset, "content_hash", counting_hash)
        result = run_search(SearchConfig(budget=15, master_seed=1), pool, signals,
                            constant_oracle())
        assert len(result.records) == 15
        assert sum(digests) <= 15

    def test_search_without_a_sink_or_role_command_skips_the_summary(self, monkeypatch):
        # the findings go only to the sink and to role prompts
        pool, signals = make_synthetic_pool(n_samples=2000, sae_dim=32, seed=7)
        spec = SyntheticOracleSpec(family="planted_quadratic", weights={"retain_ratio": 1.0},
                                   targets={"retain_ratio": 0.5})
        config = SearchConfig(budget=15, patience=2, master_seed=1)
        events = []
        with_sink = run_search(config, pool, signals, SyntheticOracle(spec),
                               sink=events.append)
        assert any(e["type"] == "guidance" for e in events)

        def refuse(history, catalog):
            raise AssertionError("summarized without a reader")

        monkeypatch.setattr(controller, "fallback_summarize", refuse)
        without = run_search(config, pool, signals, SyntheticOracle(spec))
        assert ([r.to_event() for r in without.records]
                == [r.to_event() for r in with_sink.records])
        assert without.incumbent_ids == with_sink.incumbent_ids

    def test_fallback_search_computes_no_more_states_than_it_evaluates(self, monkeypatch):
        # warmup bands and the fallback ranker read only retain ratios
        pool, signals = make_synthetic_pool(n_samples=2000, sae_dim=32, seed=7)
        computed = []
        real_compute_state = controller.compute_state

        def counting(subset, table):
            computed.append(subset)
            return real_compute_state(subset, table)

        monkeypatch.setattr(controller, "compute_state", counting)
        result = run_search(SearchConfig(budget=15, master_seed=1), pool, signals,
                            constant_oracle())
        assert len(result.records) == 15
        assert 0 < len(computed) <= len(result.records)

    @pytest.mark.parametrize("master_seed", [3, 4, 5])
    def test_fallback_search_computes_a_state_per_cache_miss(self, monkeypatch, master_seed):
        # a cache hit takes the state stored with its score
        pool, signals = make_synthetic_pool(n_samples=2000, sae_dim=32, seed=7)
        computed = []
        evaluated = []
        real_compute_state = controller.compute_state
        real_evaluate = controller._Runtime.evaluate

        def counting(subset, table):
            computed.append(subset)
            return real_compute_state(subset, table)

        def recording(rt, cand, is_warmup):
            evaluated.append(cand.subset)
            return real_evaluate(rt, cand, is_warmup)

        monkeypatch.setattr(controller, "compute_state", counting)
        monkeypatch.setattr(controller._Runtime, "evaluate", recording)
        result = run_search(SearchConfig(budget=15, master_seed=master_seed), pool, signals,
                            constant_oracle())
        hits = [i for i, r in enumerate(result.records) if r.cache_hit]
        assert len(result.records) == len(evaluated) == 15
        assert hits
        assert len(computed) == len(result.records) - len(hits)
        for i in hits:
            assert result.records[i].state == compute_state(evaluated[i], signals)

    def test_incumbent_monotone(self, small_pool):
        pool, signals = small_pool
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0}, targets={"retain_ratio": 0.5},
            noise_std=0.2, noise_seed=8,
        )
        config = SearchConfig(budget=12, master_seed=5)
        result = run_search(config, pool, signals, SyntheticOracle(spec))
        best = -np.inf
        bests = []
        for r in result.records:
            best = max(best, r.score)
            bests.append(best)
        assert bests == sorted(bests)
        assert result.incumbent_score == bests[-1]

    def test_seed_phase_increments_only_at_reseeds(self, small_pool):
        pool, signals = small_pool
        events = []
        config = SearchConfig(budget=15, master_seed=6)
        run_search(config, pool, signals, constant_oracle(), sink=events.append)
        reseed_steps = {e["step"]: e["seed_phase"] for e in events
                        if e["type"] == "reseed"}
        expected_phase = 1
        for e in events:
            if e["type"] == "eval":
                assert e["seed_phase"] == expected_phase
            if e["type"] == "reseed":
                expected_phase += 1
                assert e["seed_phase"] == expected_phase

    def test_full_determinism_in_fallback_mode(self, small_pool):
        pool, signals = small_pool
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0, "score_mean": 0.5},
            targets={"retain_ratio": 0.5, "score_mean": 0.5},
        )
        config = SearchConfig(budget=10, master_seed=11)
        streams = []
        for _ in range(2):
            events = []
            run_search(config, pool, signals, SyntheticOracle(spec),
                       sink=events.append)
            streams.append(json.dumps(events, sort_keys=True))
        assert streams[0] == streams[1]

    def test_random_select_mode_runs_and_differs(self, small_pool):
        pool, signals = small_pool
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0}, targets={"retain_ratio": 0.5},
        )
        full = run_search(SearchConfig(budget=10, master_seed=12), pool, signals,
                          SyntheticOracle(spec))
        ablated = run_search(SearchConfig(budget=10, master_seed=12,
                                          random_select=True),
                             pool, signals, SyntheticOracle(spec))
        assert len(full.records) == len(ablated.records) == 10
        # identical warmup by construction
        assert [r.subset_hash for r in full.records[:3]] == \
               [r.subset_hash for r in ablated.records[:3]]


def brute_spearman(xs, ys):
    """Rank correlation with average ranks, plain arithmetic."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    return num / den


class TestFallbackSummarize:
    @pytest.fixture()
    def catalog(self, small_pool):
        pool, _ = small_pool
        return default_catalog(len(pool))

    def test_single_record_insufficient_evidence(self, catalog):
        guidance = fallback_summarize([make_record(1, [FR], 5.0)], catalog)
        assert guidance.findings == ["insufficient evidence: only one evaluation so far"]

    def test_separating_operator_ranks_first(self, catalog):
        records = [
            make_record(1, [("ao_topfrac", {"fraction": 0.5})], 9.0),
            make_record(2, [("ao_topfrac", {"fraction": 0.7})], 8.0),
            make_record(3, [FR], 2.0),
            make_record(4, [("ngram_topfrac", {"fraction": 0.5})], 1.0),
        ]
        guidance = fallback_summarize(records, catalog)
        assert guidance.findings == [
            "operator ao_topfrac raises mean score by +7.0000 "
            "(present in 2 vs absent in 2 evaluations)",
            "operator ngram_topfrac lowers mean score by -5.3333 "
            "(present in 1 vs absent in 3 evaluations)",
            "retain-ratio band (0.333, 0.667] scored best (mean 5.0000)",
        ]

    def test_six_record_fixture_matches_brute_force(self, catalog):
        retains = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        ifds = [0.6, 0.5, 0.4, 0.3, 0.35, 0.1]
        scores = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        records = []
        for i in range(6):
            ops = [("ao_topfrac", {"fraction": 0.5})] if i >= 3 else [
                ("ngram_topfrac", {"fraction": 0.5})
            ]
            state = make_state(retain=retains[i], token_ratio=0.5, mean_ifd=ifds[i])
            records.append(make_record(i + 1, ops, scores[i], state=state))
        guidance = fallback_summarize(records, catalog)

        rho_retain = brute_spearman(retains, scores)
        rho_ifd = brute_spearman(ifds, scores)
        assert rho_retain == pytest.approx(1.0)
        corr_findings = [f for f in guidance.findings if "Spearman" in f]
        assert f"retain_ratio has Spearman {rho_retain:+.3f}" in corr_findings[0]
        assert f"mean_ifd has Spearman {rho_ifd:+.3f}" in corr_findings[1]
        # operator deltas: ao on the high half, ngram on the low half
        assert guidance.findings[:2] == [
            "operator ao_topfrac raises mean score by +3.0000 "
            "(present in 3 vs absent in 3 evaluations)",
            "operator ngram_topfrac lowers mean score by -3.0000 "
            "(present in 3 vs absent in 3 evaluations)",
        ]
        assert guidance.findings[4] == "retain-ratio band (0.333, 0.667] scored best (mean 5.0000)"
        assert len(guidance.findings) == 5


class TestFallbackRank:
    @pytest.fixture(autouse=True)
    def _pool(self, thousand_pool):
        self.pool = thousand_pool

    def make_candidate(self, mu, sigma, retain=0.5):
        size = round(retain * len(self.pool))
        cand = Candidate(
            recipe=Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),)),
            subset=Subset(np.arange(size, dtype=np.int64), self.pool),
            encoding=np.zeros(4), mu=mu, sigma=sigma,
        )
        assert cand.retain_ratio == retain
        return cand

    def test_acquisition_arithmetic(self):
        cands = [self.make_candidate(5.0, 0.0), self.make_candidate(4.0, 2.0)]
        ranking = fallback_rank(cands)
        assert ranking[0] == 1  # 4 + 2 = 6 beats 5 + 0 = 5

    def test_retain_floor_demotion(self):
        cands = [
            self.make_candidate(9.0, 1.0, retain=0.001),
            self.make_candidate(1.0, 0.0, retain=0.5),
            self.make_candidate(2.0, 0.0, retain=0.4),
        ]
        ranking = fallback_rank(cands)
        assert ranking[-1] == 0  # degenerate subset goes to the tail
        assert ranking == [2, 1, 0]

    def test_five_candidate_sort_oracle(self):
        mus = [1.0, 3.0, 2.0, 5.0, 4.0]
        sigmas = [0.5, 0.1, 2.0, 0.0, 0.2]
        cands = [self.make_candidate(m, s) for m, s in zip(mus, sigmas)]
        expected = sorted(range(5), key=lambda i: (-(mus[i] + sigmas[i]), i))
        assert fallback_rank(cands) == expected

    def test_tie_by_candidate_index(self):
        cands = [self.make_candidate(1.0, 0.0), self.make_candidate(1.0, 0.0)]
        assert fallback_rank(cands) == [0, 1]


class TestFallbackReseed:
    def history_with_dominant_pair(self):
        records = [
            make_record(1, [("ngram_topfrac", {"fraction": 0.9}),
                            ("mona_filter", {"fraction": 0.8})], 60.0),
            make_record(2, [("ngram_topfrac", {"fraction": 0.7}),
                            ("mona_filter", {"fraction": 0.6})], 50.0),
            make_record(3, [("ao_topfrac", {"fraction": 0.5})], 40.0),
            make_record(4, [("random_k", {"k": 10, "seed": 0})], 30.0),
            make_record(5, [FR], 20.0),
            make_record(6, [("varentropy_topfrac", {"fraction": 0.5})], 10.0),
        ]
        return records

    def test_motif_signals_tertile_counts(self):
        op_sig, pair_sig = motif_signals(self.history_with_dominant_pair())
        assert op_sig["ngram_topfrac"] == 2
        assert op_sig["mona_filter"] == 2
        assert pair_sig[("ngram_topfrac", "mona_filter")] == 2
        assert op_sig["ifd_topfrac"] == -1

    def test_dominant_pair_sampled_most(self, small_pool):
        pool, _ = small_pool
        catalog = default_catalog(len(pool))
        records = self.history_with_dominant_pair()
        pair_counts: dict[tuple, int] = {}
        for draw in range(1000):
            rng = np.random.default_rng(draw)
            motif = fallback_reseed(records, catalog, rng)
            ops = motif.operators()
            for pair in zip(ops[:-1], ops[1:]):
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
        dominant = pair_counts.get(("ngram_topfrac", "mona_filter"), 0)
        others = [v for k, v in pair_counts.items()
                  if k != ("ngram_topfrac", "mona_filter")]
        assert dominant > 0
        assert dominant > max(others, default=0)

    def test_params_come_from_best_occurrence(self, small_pool):
        pool, _ = small_pool
        catalog = default_catalog(len(pool))
        records = self.history_with_dominant_pair()
        seen_params = set()
        for draw in range(200):
            rng = np.random.default_rng(draw)
            motif = fallback_reseed(records, catalog, rng)
            for step in motif.steps:
                if step.operator == "ngram_topfrac":
                    seen_params.add(step.params["fraction"])
        assert seen_params == {0.9}  # the score-60 occurrence, not the score-50 one

    def test_identical_scores_uniform_fallback(self, small_pool):
        pool, _ = small_pool
        catalog = default_catalog(len(pool))
        records = [make_record(i, [FR], 5.0) for i in range(1, 5)]
        rng_a = np.random.default_rng(0)
        motif = fallback_reseed(records, catalog, rng_a)
        assert 1 <= len(motif) <= 5
        # no positive signal: the draw must match a plain uniform sample
        from recipesearch.recipe import sample_random_recipe

        rng_b = np.random.default_rng(0)
        assert motif == sample_random_recipe(catalog, rng_b)

    def test_motif_constraints(self, small_pool):
        pool, _ = small_pool
        catalog = default_catalog(len(pool))
        records = [
            make_record(1, [("mix", {"source": "incumbent"})], 50.0),
            make_record(2, [("mix", {"source": "incumbent"}),
                            ("ngram_topfrac", {"fraction": 0.5})], 40.0),
            make_record(3, [FR], 10.0),
            make_record(4, [("ao_topfrac", {"fraction": 0.2})], 5.0),
        ]
        for draw in range(300):
            rng = np.random.default_rng(draw)
            motif = fallback_reseed(records, catalog, rng, l_max=3)
            assert 1 <= len(motif) <= 3
            assert motif.operators() != [MIX]


PROPOSER_STUB = """
import json, sys
sys.stdin.read()
steps = [{"operator": "ifd_topfrac", "params": {"fraction": 0.4}}]
print(json.dumps([{"steps": steps}] * 3))
"""

PROPOSER_FENCED_STUB = """
import json, sys
sys.stdin.read()
steps = [{"operator": "ngram_topfrac", "params": {"fraction": 0.6}}]
print("```json")
print(json.dumps([{"steps": steps}]))
print("```")
"""

RANKER_MISSING_KEY_STUB = """
import sys
sys.stdin.read()
print('{"confidence": "high"}')
"""


class TestExternalAssistants:
    def write_stub(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(body)
        return [sys.executable, str(path)]

    def test_strip_json_payload_variants(self):
        assert controller._json_payload('[1, 2]') == [1, 2]
        assert controller._json_payload('```json\n[1, 2]\n```') == [1, 2]
        assert controller._json_payload('noise {"a": 1} trailing') == {"a": 1}

    def test_proposer_stub_consumed(self, small_pool, tmp_path):
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "proposer.py", PROPOSER_STUB)
        events = []
        config = SearchConfig(
            budget=5, master_seed=20, assistant_commands={"proposer": cmd},
        )
        result = run_search(config, pool, signals, constant_oracle(),
                            sink=events.append)
        assert len(result.records) == 5
        # steps 4 and 5 must have evaluated the externally proposed recipe
        for record in result.records[3:]:
            assert record.recipe.operators() == ["ifd_topfrac"]
            assert record.recipe.steps[0].params["fraction"] == 0.4

    def test_fenced_proposer_response_tolerated(self, small_pool, tmp_path):
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "fenced.py", PROPOSER_FENCED_STUB)
        config = SearchConfig(
            budget=4, master_seed=21, assistant_commands={"proposer": cmd},
        )
        result = run_search(config, pool, signals, constant_oracle())
        assert result.records[3].recipe.operators() == ["ngram_topfrac"]

    def test_ranker_schema_violation_falls_back(self, small_pool, tmp_path):
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "ranker.py", RANKER_MISSING_KEY_STUB)
        events = []
        config = SearchConfig(
            budget=5, master_seed=22, assistant_commands={"ranker": cmd},
        )
        result = run_search(config, pool, signals, constant_oracle(),
                            sink=events.append)
        failures = [e for e in events if e["type"] == "assistant_failure"]
        assert failures and all(e["role"] == "ranker" for e in failures)
        # schema violations are retried twice before deferring to the fallback
        by_step = {}
        for e in failures:
            by_step.setdefault(e["step"], []).append(e["attempt"])
        assert all(attempts == [0, 1, 2] for attempts in by_step.values())
        assert len(result.records) == 5  # degradation is never fatal

    @pytest.mark.parametrize("ranking", ["[1.7, 0.2]", "[true, 0]"])
    def test_ranker_non_integer_indices_fall_back(self, small_pool, tmp_path, ranking):
        pool, signals = small_pool
        body = f"import sys\nsys.stdin.read()\nprint('{{\"ranking\": {ranking}}}')\n"
        cmd = self.write_stub(tmp_path, "ranker.py", body)
        events = []
        config = SearchConfig(
            budget=5, master_seed=22, candidates_per_step=2,
            assistant_commands={"ranker": cmd},
        )
        run_search(config, pool, signals, constant_oracle(), sink=events.append)
        failures = [e for e in events if e["type"] == "assistant_failure"]
        assert failures
        assert all(e["error"] == "missing or invalid ranking" for e in failures)

    def test_fallback_builds_no_prompt(self, small_pool, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a fallback role built a prompt")

        monkeypatch.setattr(controller, "_external_contexts", forbidden)
        pool, signals = small_pool
        events = []
        run_search(SearchConfig(budget=12, patience=1, master_seed=24), pool, signals,
                   constant_oracle(), sink=events.append)
        # every role was asked: guidance each step, at least one reseed
        assert any(e["type"] == "reseed" for e in events)

    def test_only_roles_with_a_command_build_prompts(self, small_pool, tmp_path, monkeypatch):
        built = []
        real_contexts = controller._external_contexts

        def counting(rt, anchor, guidance, candidates):
            built.append(candidates is None)
            return real_contexts(rt, anchor, guidance, candidates)

        monkeypatch.setattr(controller, "_external_contexts", counting)
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "proposer.py", PROPOSER_STUB)
        run_search(SearchConfig(budget=6, master_seed=20, assistant_commands={"proposer": cmd}),
                   pool, signals, constant_oracle())
        assert built == [True] * 3  # one proposer prompt per search step

    def test_permanently_failing_assistant_matches_fallback_structure(
        self, small_pool, tmp_path
    ):
        pool, signals = small_pool
        fail_cmd = self.write_stub(tmp_path, "fail.py", "import sys; sys.exit(1)")
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0}, targets={"retain_ratio": 0.5},
        )
        fallback_events, external_events = [], []
        run_search(SearchConfig(budget=8, master_seed=23), pool, signals,
                   SyntheticOracle(spec), sink=fallback_events.append)
        config = SearchConfig(
            budget=8, master_seed=23,
            assistant_commands={role: fail_cmd for role in
                                ("summarizer", "proposer", "ranker", "reseeder")},
        )
        run_search(config, pool, signals, SyntheticOracle(spec),
                   sink=external_events.append)
        failures = [e for e in external_events if e["type"] == "assistant_failure"]
        assert failures
        f_evals = [e for e in fallback_events if e["type"] == "eval"]
        x_evals = [e for e in external_events if e["type"] == "eval"]
        assert len(f_evals) == len(x_evals) == 8
        # the degraded run falls back onto the same deterministic streams
        assert [e["subset_hash"] for e in f_evals] == [e["subset_hash"] for e in x_evals]
        assert [e["score"] for e in f_evals] == [e["score"] for e in x_evals]


# ---------------------------------------------------------------------------
# Role calls: every assistant_failure text, and parsers that never raise
# ---------------------------------------------------------------------------

ROLE_STEP = 4
FOUR_STEPS = json.dumps([{"operator": "ifd_topfrac", "params": {"fraction": 0.5}}] * 4)


@pytest.fixture(scope="module")
def role_setup(small_pool):
    """A runtime without role commands, and two materialized candidates for the ranker."""
    pool, signals = small_pool
    rt = controller._Runtime(SearchConfig(budget=5), signals, constant_oracle(),
                             default_catalog(len(pool)), None)
    candidates = [
        rt.materialize(Recipe((OperatorSpec("ifd_topfrac", {"fraction": f}),)))
        for f in (0.3, 0.6)
    ]
    return rt, candidates


def ask(role_setup, role, command):
    """One call of ``role`` through ``command``: its value and its failure events."""
    base, candidates = role_setup
    events = []
    rt = controller._Runtime(
        SearchConfig(budget=5, assistant_commands={role: command}), base.signals,
        base.oracle, base.catalog, events.append,
    )
    value = controller.ask_role(rt, role, ROLE_STEP, candidates[0].recipe,
                                Guidance(findings=["a finding"]),
                                candidates if role == "ranker" else None)
    return value, [e for e in events if e["type"] == "assistant_failure"]


def printing(out):
    """A stand-in for the role command's process that prints ``out``."""
    return mock.patch.object(controller, "run_command", lambda command, prompt, timeout: (
        subprocess.CompletedProcess(command, 0, out, ""), ""))


# role -> (its output, the error of each of its three failed attempts)
PARSE_FAILURES = {
    "proposer_not_json": ("proposer", "no json here", "unparsable JSON"),
    "proposer_scalar": ("proposer", "42", "not a JSON array"),
    "proposer_no_valid_recipe": ("proposer", '[{"steps": []}, {"steps": 3}]',
                                 "no valid recipes"),
    "proposer_non_ascii_digit_source": (
        "proposer", '[{"steps": [{"operator": "mix", "params": {"source": "eval:\u00b2"}}]}]',
        "no valid recipes"),
    "ranker_no_ranking": ("ranker", '{"confidence": "high"}', "missing or invalid ranking"),
    "ranker_not_a_permutation": ("ranker", '{"ranking": [0, 0]}',
                                 "ranking is not a permutation of 0..1"),
    "ranker_nan": ("ranker", '{"ranking": [0, 1], "confidence": NaN, "rationale": Infinity}',
                   "unparsable JSON"),
    "ranker_overflow": ("ranker", '{"ranking": [0, 1], "confidence": 1e400}',
                        "unparsable JSON"),
    "reseeder_not_json": ("reseeder", "no json here", "unparsable JSON"),
    "reseeder_object": ("reseeder", '{"steps": []}', "not a step array"),
    "reseeder_invalid_motif": ("reseeder", '[{"operator": "nope"}]',
                               "invalid motif: step 1: unknown operator 'nope'"),
    "reseeder_lone_mix": ("reseeder", '[{"operator": "mix", "params": {}}]',
                          "motif out of bounds"),
    "reseeder_too_long": ("reseeder", FOUR_STEPS, "motif out of bounds"),
}


@pytest.mark.parametrize("case", sorted(PARSE_FAILURES))
def test_parse_failure_is_retried_with_its_reason(role_setup, case):
    role, out, error = PARSE_FAILURES[case]
    with printing(out):
        value, failures = ask(role_setup, role, ["assistant"])
    assert value is None
    assert [(e["role"], e["step"], e["attempt"], e["error"]) for e in failures] == [
        (role, ROLE_STEP, attempt, error) for attempt in range(3)
    ]


# case -> (role, its command, the error of each failed attempt, attempts made)
INVOKE_FAILURES = {
    "missing_binary": ("proposer", ["/nonexistent/assistant-bin"],
                       "command not found: /nonexistent/assistant-bin", 1),
    "nonzero_exit": ("proposer",
                     [sys.executable, "-c", "import sys; sys.stdin.read(); sys.exit(3)"],
                     "exit code 3", 3),
    "no_output": ("proposer", [sys.executable, "-c", "import sys; sys.stdin.read(); print('  ')"],
                  "empty output", 3),
    "summarizer_blank": ("summarizer",
                         [sys.executable, "-c", r"import sys; sys.stdin.read(); print(' \n\t')"],
                         "empty output", 3),
}


@pytest.mark.parametrize("case", sorted(INVOKE_FAILURES))
def test_invocation_failure_reasons(role_setup, case):
    role, command, error, attempts = INVOKE_FAILURES[case]
    value, failures = ask(role_setup, role, command)
    assert value is None
    assert [(e["attempt"], e["error"]) for e in failures] == [
        (attempt, error) for attempt in range(attempts)
    ]


# file -> (its bytes, its mode, the OSError reason of starting it)
UNRUNNABLE_FILES = {
    "no_execute_bit": (b"#!/bin/sh\necho '[]'\n", 0o644, "Permission denied"),
    "not_an_executable_format": (b"\x7fELF\x00\x00", 0o755, "Exec format error"),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE_FILES))
def test_unrunnable_command_fails_once_then_falls_back(role_setup, tmp_path, case):
    content, mode, reason = UNRUNNABLE_FILES[case]
    path = tmp_path / "assistant"
    path.write_bytes(content)
    path.chmod(mode)
    value, failures = ask(role_setup, "proposer", [str(path)])
    assert value is None
    assert [(e["attempt"], e["error"]) for e in failures] == [
        (0, f"command not runnable: {path}: {reason}")
    ]


# Keys and operator names that steer generated documents into the parsers' deeper paths.
_KEYS = st.sampled_from(["steps", "operator", "params", "fraction", "k", "seed",
                         "n_clusters", "tau", "source", "ranking", "confidence"])
_NAMES = st.sampled_from(["ifd_topfrac", "random_k", "semdedup", "mix", "incumbent"])
_JSON_SCALARS = st.one_of(
    st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity"]),
    st.integers().map(str),
    st.sampled_from([400, 5000]).map(lambda n: "9" * n),  # past a float, past int()
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.one_of(st.text(max_size=8), _NAMES, _KEYS).map(json.dumps),
)
JSON_TEXT = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.dictionaries(st.one_of(_KEYS, st.text(max_size=4)), inner, max_size=4).map(
            lambda d: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in d.items()) + "}"
        ),
    ),
    max_leaves=12,
)
ROLE_OUTPUT = st.one_of(st.text(), JSON_TEXT, JSON_TEXT.map(lambda t: f"```json\n{t}\n```"))


@settings(max_examples=500, deadline=None)
@given(role=st.sampled_from(controller.ASSISTANT_ROLES), out=ROLE_OUTPUT)
@example(role="proposer", out="[" + "9" * 5000 + "]")
@example(role="reseeder", out='[{"operator": "ifd_topfrac", "params": {"fraction": 1%s}}]'
         % ("0" * 400))
def test_role_parsers_give_a_value_or_a_reason(role_setup, role, out):
    rt, candidates = role_setup
    value, reason = controller._ROLE_PARSERS[role](out, rt, candidates)
    assert (value is None) == bool(reason)


# ---------------------------------------------------------------------------
# Search paths off the default route: role answers taken, rescue draws,
# relaxed warmup bins, cache hits
# ---------------------------------------------------------------------------

def test_external_ranking_picks_its_first_candidate(small_pool):
    pool, signals = small_pool
    answer = json.dumps({"ranking": [1, 0], "confidence": "high", "rationale": "second first"})
    events = []
    config = SearchConfig(budget=6, master_seed=22, candidates_per_step=2,
                          assistant_commands={"ranker": ["assistant"]})
    with printing(answer):
        result = run_search(config, pool, signals, constant_oracle(), sink=events.append)
    assert not [e for e in events if e["type"] == "assistant_failure"]
    steps = [e for e in events if e["type"] == "candidates"]
    assert [e["step"] for e in steps] == [4, 5, 6]
    for event in steps:
        items = event["items"]
        assert [(item["rank"], item["chosen"]) for item in items] == [(1, False), (0, True)]
        assert event["rank_meta"] == {
            "confidence": "high", "rationale": "second first", "eval_rationale": None,
        }
        assert result.records[event["step"] - 1].subset_hash == items[1]["subset_hash"]


def test_proposals_materialize_only_until_enough_are_valid(small_pool, monkeypatch):
    pool, signals = small_pool
    proposed = [Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.3 + 0.01 * i}),))
                for i in range(30)]
    materialized = []
    real_materialize = controller._Runtime.materialize

    def counting(rt, recipe):
        materialized.append(recipe)
        return real_materialize(rt, recipe)

    monkeypatch.setattr(controller._Runtime, "materialize", counting)
    events = []
    config = SearchConfig(budget=6, master_seed=20, candidates_per_step=5,
                          assistant_commands={"proposer": ["assistant"]})
    with printing(json.dumps([recipe_to_obj(r) for r in proposed])):
        run_search(config, pool, signals, constant_oracle(), sink=events.append)
    steps = [e for e in events if e["type"] == "candidates"]
    assert [[item["recipe"] for item in e["items"]] for e in steps] == [
        [recipe_to_obj(r) for r in proposed[:5]]] * 3
    assert sum(recipe in proposed for recipe in materialized) == 3 * 5


def test_external_motif_becomes_the_reseed_anchor(small_pool):
    pool, signals = small_pool
    motif = [{"operator": "ifd_topfrac", "params": {"fraction": 0.25}}]
    events = []
    config = SearchConfig(budget=6, patience=1, master_seed=24,
                          assistant_commands={"reseeder": ["assistant"]})
    with printing(json.dumps(motif)):
        run_search(config, pool, signals, constant_oracle(), sink=events.append)
    assert not [e for e in events if e["type"] == "assistant_failure"]
    reseeds = [e for e in events if e["type"] == "reseed"]
    assert [e["step"] for e in reseeds] == [4, 5, 6]
    assert all(e["recipe"] == {"steps": motif} for e in reseeds)


def no_local_edits(*args, **kwargs):
    raise ProposeError("no edit of the anchor applies")


def test_proposer_failure_evaluates_a_rescue_draw(small_pool, monkeypatch):
    pool, signals = small_pool
    monkeypatch.setattr(controller, "propose_local_edits", no_local_edits)
    draws = []
    real_draw = controller._Runtime.draw_candidate

    def spying_draw(rt, rng, cap, band=None):
        if band is not None:  # a warmup probe
            return real_draw(rt, rng, cap, band)
        state = rng.bit_generator.state
        draws.append((state, real_draw(rt, rng, cap)))
        return draws[-1][1]

    monkeypatch.setattr(controller._Runtime, "draw_candidate", spying_draw)
    result = run_search(SearchConfig(budget=5, master_seed=3), pool, signals,
                        constant_oracle())
    assert len(draws) == 2
    for step, (state, cand) in zip((4, 5), draws):
        assert state == controller.role_rng(3, step, "rescue").bit_generator.state
        assert cand is not None and result.records[step - 1].recipe == cand.recipe


def test_no_rescue_draw_ends_the_search(small_pool, monkeypatch):
    pool, signals = small_pool
    monkeypatch.setattr(controller, "propose_local_edits", no_local_edits)
    real_draw = controller._Runtime.draw_candidate

    def no_rescue_draw(rt, rng, cap, band=None):  # warmup probes still draw
        return None if band is None else real_draw(rt, rng, cap, band)

    monkeypatch.setattr(controller._Runtime, "draw_candidate", no_rescue_draw)
    with pytest.raises(ControllerError, match="no executable candidate found at step 4"):
        run_search(SearchConfig(budget=5, master_seed=3), pool, signals, constant_oracle())


def test_warmup_falls_back_to_the_nearest_draw(small_pool, monkeypatch):
    # with one draw per bin, seed 11 lands each probe outside its band
    pool, signals = small_pool
    monkeypatch.setattr(controller, "WARMUP_RESAMPLE_CAP", 1)
    config = SearchConfig(budget=5, master_seed=11)
    records, _ = run_warmup(config, pool, signals, constant_oracle())
    rng = controller.role_rng(11, 0, "warmup")
    catalog = default_catalog(len(pool))
    draws = [sample_random_recipe(catalog, rng, config.l_max) for _ in controller.RETAIN_BANDS]
    assert [r.recipe for r in records] == draws
    assert not any(lo < r.state.retain_ratio <= hi
                   for r, (lo, hi) in zip(records, controller.RETAIN_BANDS))



@pytest.mark.parametrize("seed, cap, lines", [
    (1, controller.WARMUP_RESAMPLE_CAP, [
        "warmup bin 0 (0.0000, 0.3333]: 1 draws, 0 skipped by their size range, hit",
        "warmup bin 1 (0.3333, 0.6667]: 3 draws, 2 skipped by their size range, hit",
        "warmup bin 2 (0.6667, 1.0000]: 1 draws, 0 skipped by their size range, hit",
    ]),
    (11, 1, [
        f"warmup bin {i} ({lo:.4f}, {hi:.4f}]: 1 draws, 1 skipped by their size range, "
        "fell back to the nearest draw"
        for i, (lo, hi) in enumerate(controller.RETAIN_BANDS)
    ]),
])
def test_warmup_logs_each_bin(small_pool, monkeypatch, caplog, seed, cap, lines):
    pool, signals = small_pool
    monkeypatch.setattr(controller, "WARMUP_RESAMPLE_CAP", cap)
    caplog.set_level(logging.DEBUG, logger="recipesearch.controller")
    run_warmup(SearchConfig(budget=5, master_seed=seed), pool, signals, constant_oracle())
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("warmup bin")] == lines


def test_draw_candidate_takes_the_first_accepted_else_the_earliest_nearest(small_pool):
    pool, signals = small_pool
    catalog = default_catalog(len(pool))
    rt = controller._Runtime(SearchConfig(), signals, constant_oracle(), catalog, None)
    rng = np.random.default_rng(0)
    draws = [sample_random_recipe(catalog, rng) for _ in range(9)]
    sizes = [None if c is None else len(c.subset) for c in map(rt.try_materialize, draws)]
    assert sizes == [36, 7, 27, None, 64, None, 27, 66, 6]  # of 120 samples

    def drawn(band):
        return rt.draw_candidate(np.random.default_rng(0), len(draws), band).recipe

    # none lands in (0.2, 0.21]; draws[2] and draws[6] are nearest, the later
    # skipped by its size range and materialized after the last draw
    assert size_range(draws[6], signals) == (27, 27)
    assert drawn((0.2, 0.21)) == draws[2]  # the earlier of a tie
    # draws[3] and draws[5] abort, though their size ranges meet the band
    assert [size_range(draws[i], signals) for i in (3, 5)] == [(1, 7), (1, 20)]
    assert drawn((0.04, 0.05)) == draws[8]


def materializing_every_draw(rt, rng, cap, band, aborts):
    """draw_candidate as a loop that materializes each draw before testing it;
    appends each draw that aborts to ``aborts``."""
    lo, hi = band
    nearest = None
    for _ in range(cap):
        recipe = sample_random_recipe(rt.catalog, rng, rt.config.l_max)
        cand = rt.try_materialize(recipe)
        if cand is None:
            aborts.append(recipe)
            continue
        if lo < cand.retain_ratio <= hi:
            return cand
        dist = max(lo - cand.retain_ratio, cand.retain_ratio - hi)
        if nearest is None or dist < nearest[0]:
            nearest = (dist, cand)
    return None if nearest is None else nearest[1]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_warmup_probes_match_materializing_every_draw(small_pool, monkeypatch, cap):
    pool, signals = small_pool
    catalog = default_catalog(len(pool))
    monkeypatch.setattr(controller, "WARMUP_RESAMPLE_CAP", cap)
    real_role_rng, warmup_rngs = controller.role_rng, []

    def recording_role_rng(*args):
        warmup_rngs.append(real_role_rng(*args))
        return warmup_rngs[-1]

    monkeypatch.setattr(controller, "role_rng", recording_role_rng)
    aborts, skipped, fell_back = [], 0, 0
    for seed in range(1, 31):
        config = SearchConfig(budget=5, master_seed=seed)
        reference = controller._Runtime(config, signals, constant_oracle(), catalog, None)
        rng = real_role_rng(seed, 0, "warmup")
        probes = [materializing_every_draw(reference, rng, cap, band, aborts)
                  for band in controller.RETAIN_BANDS]
        rt = controller._Runtime(config, signals, constant_oracle(), catalog, None)
        if None in probes:
            with pytest.raises(ControllerError, match="unfillable"):
                controller._run_warmup(rt)
            continue
        controller._run_warmup(rt)
        assert [r.recipe for r in rt.records] == [c.recipe for c in probes]
        assert [r.subset_hash for r in rt.records] == [c.subset.content_hash() for c in probes]
        assert warmup_rngs[-1].bit_generator.state == rng.bit_generator.state
        skipped += rt.draws_skipped
        fell_back += sum(not lo < c.retain_ratio <= hi
                         for c, (lo, hi) in zip(probes, controller.RETAIN_BANDS))
    assert aborts and skipped and fell_back


class TimedOracle:
    """Scores 1.0, 2.0, ... in call order, each with a duration of 0.5 s."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, request, state):
        self.calls += 1
        return EvalOutcome(score=float(self.calls), duration_s=0.5)


def test_a_cache_hit_records_the_first_score_and_no_duration(small_pool):
    pool, signals = small_pool
    events = []
    oracle = TimedOracle()
    rt = controller._Runtime(SearchConfig(budget=5), signals, oracle,
                             default_catalog(len(pool)), events.append)
    half = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
    same_subset = Recipe(half.steps + (OperatorSpec("ifd_topfrac", {"fraction": 1.0}),))
    rt.evaluate(rt.materialize(half), is_warmup=False)
    rt.evaluate(rt.materialize(same_subset), is_warmup=False)
    first, repeat = events
    assert oracle.calls == 1
    assert repeat["subset_hash"] == first["subset_hash"]
    assert first["cache_hit"] is False and first["duration_s"] == 0.5
    assert repeat["cache_hit"] is True and "duration_s" not in repeat
    assert repeat["score"] == first["score"] == 1.0


def spearman_loop(fields, scores):
    """The per-field ``spearmanr`` loop that ``state_correlations`` replaces."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) < 3 or scores.std() == 0:
        return []
    out = []
    for name in sorted(fields[0]):
        values = np.array([f[name] for f in fields], dtype=np.float64)
        if values.max() == values.min():
            continue
        rho = stats.spearmanr(values, scores).statistic
        if np.isfinite(rho):
            out.append((name, float(rho)))
    out.sort(key=lambda c: (-abs(c[1]), c[0]))
    return out


# One column of n values: continuous, integer-valued with ties, two values, or constant.
def _column(n):
    return st.one_of(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.25, 0.75]), min_size=n, max_size=n),
        st.floats(-10, 10, allow_nan=False).map(lambda v: [v] * n),
    )


@st.composite
def evaluations(draw):
    """(one flat-field mapping per evaluation, one score per evaluation)."""
    n = draw(st.integers(1, 40))
    columns = draw(st.lists(_column(n), min_size=1, max_size=16))
    names = draw(st.lists(st.text("abcdef._", min_size=1, max_size=6),
                          min_size=len(columns), max_size=len(columns), unique=True))
    fields = [{name: col[i] for name, col in zip(names, columns)} for i in range(n)]
    return fields, draw(_column(n))


# Scores that are all equal can have a float std above 0; the reference warns on them.
@pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
@settings(max_examples=400, deadline=None)
@given(evaluations())
@example(([{"a": 1.0, "b": 2.0}] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]))       # no field varies
@example(([{"a": float(i % 2), "b": 2.0} for i in range(6)],            # exactly one varies
          [3.0, 1.0, 2.0, 2.0, 5.0, 0.0]))
@example(([{"a": float(i)} for i in range(4)], [7.0] * 4))              # constant scores
@example(([{"a": float(i), "b": float(-i)} for i in range(3)], [1.0, 1.0, 2.0]))
@example(([{"a": float(i)} for i in range(3)], [0.0, 5e-324, 0.0]))  # std underflows to 0
def test_state_correlations_match_the_spearmanr_loop_bit_for_bit(case):
    fields, scores = case
    bits = lambda corrs: [(name, rho.hex()) for name, rho in corrs]  # noqa: E731
    assert bits(state_correlations(fields, scores)) == bits(spearman_loop(fields, scores))


# Rank-table entries: integers with many ties, signed zeros, tiny and huge magnitudes.
_RANK_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 12)),
              elements=_RANK_ENTRIES))
def test_average_ranks_match_rankdata_bit_for_bit(table):
    expected = stats.rankdata(table, method="average", axis=0)
    got = average_ranks(table)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
def test_state_correlations_drop_equal_scores_without_a_warning():
    fields = [{"a": 1.0}, {"a": 2.0}, {"a": 3.0}]
    assert np.std([0.1] * 3) > 0
    assert state_correlations(fields, [0.1] * 3) == []


def fresh_outcome(rt, recipe):
    """A recipe's subset and state from an execution without the memo, or its abort."""
    try:
        subset = execute_recipe(recipe, rt.signals, rt.resolve_source)
        return subset, compute_state(subset, rt.signals)
    except (ExecutionError, StateError) as exc:
        return exc


def memo_outcome(rt, recipe):
    """``rt.materialize(recipe)``, or its abort."""
    try:
        return rt.materialize(recipe)
    except (ExecutionError, StateError) as exc:
        return exc


def with_mix(recipe, rng):
    """``recipe`` with a mix step after its first step, on a source that may not resolve."""
    steps = list(recipe.steps[: DEFAULT_L_MAX - 1])
    source = str(rng.choice(["incumbent", "eval:1", "eval:2", "eval:4", "eval:7"]))
    steps.insert(int(rng.integers(1, len(steps) + 1)), OperatorSpec(MIX, {"source": source}))
    return Recipe(tuple(steps))


# One action of the script: draw a random recipe, edit the last recipe, add a
# mix step to a random recipe, repeat an earlier recipe and the last two, or
# evaluate the last candidate (which moves the incumbent and adds an eval:<t>
# source).
ACTIONS = st.lists(
    st.tuples(st.sampled_from(["random", "edit", "mix", "repeat", "evaluate"]),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=20,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 8), actions=ACTIONS)
# a mix on "incumbent", then a new incumbent, then the same recipe again
@example(seed=0, capacity=8,
         actions=[("mix", 17), ("random", 1), ("evaluate", 0), ("repeat", 0)])
def test_prefix_memo_gives_what_a_fresh_execution_gives(small_pool, seed, capacity, actions):
    pool, signals = small_pool
    catalog = default_catalog(len(pool))
    # every new subset evaluated becomes the incumbent that a mix step resolves to
    rt = controller._Runtime(SearchConfig(budget=5), signals, ImprovingOracle(),
                             catalog, None)
    rt.prefixes = controller.PrefixMemo(capacity)
    seen = [sample_random_recipe(catalog, np.random.default_rng(seed))]
    last_cand = rt.try_materialize(seen[0])
    if last_cand is not None:  # so that a mix step can resolve from the start
        rt.evaluate(last_cand, is_warmup=False)
    for kind, value in actions:
        rng = np.random.default_rng(value)
        if kind == "evaluate":
            if last_cand is not None:
                rt.evaluate(last_cand, is_warmup=False)
            continue
        if kind == "edit":
            try:
                recipes = propose_local_edits(seen[-1], value, 3, catalog)
            except ProposeError:
                continue
        elif kind == "repeat":
            recipes = [seen[int(rng.integers(len(seen)))], *seen[-2:]]
        else:
            recipes = [sample_random_recipe(catalog, rng)]
            if kind == "mix":
                recipes = [with_mix(recipes[0], rng)]
        for recipe in recipes:
            seen.append(recipe)
            expected = fresh_outcome(rt, recipe)
            actual = memo_outcome(rt, recipe)
            assert len(rt.prefixes) <= capacity
            if isinstance(expected, Exception):
                assert type(actual) is type(expected)
                assert str(actual) == str(expected)
                continue
            want_subset, want_state = expected
            assert np.array_equal(actual.subset.positions, want_subset.positions)
            assert actual.retain_ratio.hex() == want_state.retain_ratio.hex()
            assert compute_state(actual.subset, rt.signals).to_dict() == want_state.to_dict()
            assert actual.subset.content_hash() == want_subset.content_hash()
            last_cand = actual


def test_an_eval_source_too_long_for_int_aborts_as_unresolvable(small_pool):
    pool, signals = small_pool
    catalog = default_catalog(len(pool))
    rt = controller._Runtime(SearchConfig(budget=5), signals, constant_oracle(),
                             catalog, None)
    rt.evaluate(rt.materialize(Recipe((OperatorSpec(*FR),))), is_warmup=False)
    # valid by the grammar, but int() refuses more than 4300 digits
    source = "eval:" + "1" * 5000
    recipe = Recipe((OperatorSpec(*FR), OperatorSpec(MIX, {"source": source})))
    assert validate_recipe(recipe, catalog) == []
    with pytest.raises(ExecutionError, match="unresolvable mix source"):
        rt.materialize(recipe)
    assert rt.try_materialize(recipe) is None


@pytest.mark.parametrize("source, valid, resolves", [
    ("incumbent", True, True),
    ("eval:1", True, True),
    ("eval:01", True, True),
    ("eval:+1", False, False),
    ("eval: 1", False, False),
    ("eval:\u0661", False, False),  # ARABIC-INDIC DIGIT ONE
    ("eval:\u00b2", False, False),  # SUPERSCRIPT TWO
    ("eval:1_0", False, False),
    ("eval:0", False, False),
    ("eval:" + "1" * 5000, True, False),  # valid, but names no evaluation of this run
    ("eval:" + "0" * 5000 + "1", True, True),  # leading zeros: eval:1
], ids=["incumbent", "eval_1", "eval_01", "plus", "space", "arabic_indic", "superscript",
        "underscore", "eval_0", "5000_digits", "5000_zeros_then_1"])
def test_a_mix_source_resolves_only_if_validation_accepts_it(small_pool, source, valid,
                                                             resolves):
    pool, signals = small_pool
    catalog = default_catalog(len(pool))
    rt = controller._Runtime(SearchConfig(budget=5), signals, constant_oracle(),
                             catalog, None)
    rt.evaluate(rt.materialize(Recipe((OperatorSpec(*FR),))), is_warmup=False)
    assert (validate_spec(OperatorSpec(MIX, {"source": source}), catalog) == []) is valid
    assert (rt.resolve_source(source) is not None) is resolves


def with_bare_rows(signals, bare):
    """``signals`` with no activation on the samples where ``bare`` is True."""
    keep = sp.diags((~bare).astype(np.float64))
    activations = sp.csr_matrix(keep @ signals.activations)
    activations.eliminate_zeros()
    return dataclasses.replace(signals, activations=activations)


def state_abort(subset, signals):
    with pytest.raises(StateError) as info:
        compute_state(subset, signals)
    return str(info.value)


@pytest.mark.parametrize("fraction", [0.3, 0.5])
def test_a_subset_without_activations_aborts_at_materialize(small_pool, fraction):
    pool, signals = small_pool
    # the upper half by IFD carries no activation, so its top fractions have none
    signals = with_bare_rows(signals, signals.rank("ifd") < len(pool) // 2)
    rt = controller._Runtime(SearchConfig(budget=5), signals, constant_oracle(),
                             default_catalog(len(pool)), None)
    recipe = Recipe((OperatorSpec("ifd_topfrac", {"fraction": fraction}),))
    subset = execute_recipe(recipe, signals)
    with pytest.raises(StateError) as info:
        rt.materialize(recipe)
    assert str(info.value) == state_abort(subset, signals)
    assert str(info.value) == "no subset sample carries activation features"
    assert rt.try_materialize(recipe) is None
    assert rt.states_computed == 0
    # one more sample, from the lower half, carries activations
    wider = rt.materialize(Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.51}),)))
    assert compute_state(wider.subset, signals).retain_ratio == wider.retain_ratio
    assert rt.states_computed == 0


def test_an_empty_subset_aborts_at_materialize(small_pool, monkeypatch):
    pool, signals = small_pool
    empty = Subset(np.empty(0, dtype=np.int64), pool)
    monkeypatch.setattr(controller, "execute_recipe", lambda *args: empty)
    rt = controller._Runtime(SearchConfig(budget=5), signals, constant_oracle(),
                             default_catalog(len(pool)), None)
    with pytest.raises(StateError) as info:
        rt.materialize(Recipe((OperatorSpec(*FR),)))
    assert str(info.value) == state_abort(empty, signals) == "empty subset"
