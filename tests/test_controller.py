from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from recipesearch.controller import (
    Candidate,
    ControllerError,
    EvalRecord,
    SearchConfig,
    fallback_rank,
    fallback_reseed,
    fallback_summarize,
    motif_signals,
    run_search,
    run_warmup,
    strip_json_payload,
)
from recipesearch.operators import MIX, OperatorSpec, default_catalog
from recipesearch.oracle import SyntheticOracle, SyntheticOracleSpec
from recipesearch.recipe import Recipe
from recipesearch.state import StateVector
from recipesearch.synthetic import make_synthetic_pool


@pytest.fixture(scope="module")
def small_pool():
    return make_synthetic_pool(n_samples=120, sae_dim=32, seed=7)


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
            run_warmup(SearchConfig(budget=3), pool, signals, constant_oracle())


class TestSearchStructure:
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
        result = run_search(config, pool, signals, ImprovingOracle(),
                            sink=events.append)
        assert [e for e in events if e["type"] == "reseed"] == []
        assert result.incumbent_step == 10
        assert result.incumbent_score == 10.0

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
        assert guidance.op_bias == {}
        assert guidance.findings == ["insufficient evidence: only one evaluation so far"]

    def test_separating_operator_ranks_first(self, catalog):
        records = [
            make_record(1, [("ao_topfrac", {"fraction": 0.5})], 9.0),
            make_record(2, [("ao_topfrac", {"fraction": 0.7})], 8.0),
            make_record(3, [FR], 2.0),
            make_record(4, [("ngram_topfrac", {"fraction": 0.5})], 1.0),
        ]
        guidance = fallback_summarize(records, catalog)
        assert max(guidance.op_bias, key=guidance.op_bias.get) == "ao_topfrac"
        assert guidance.op_bias["ao_topfrac"] > 0
        assert "ao_topfrac" in guidance.findings[0]

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
        assert guidance.op_bias["ao_topfrac"] == pytest.approx(3.0)
        assert guidance.op_bias["ngram_topfrac"] == pytest.approx(-3.0)
        assert guidance.best_band == (1 / 3, 2 / 3)
        assert len(guidance.findings) <= 5


class TestFallbackRank:
    def make_candidate(self, mu, sigma, retain=0.5):
        return Candidate(
            recipe=Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),)),
            subset=None, state=make_state(retain=retain),
            encoding=np.zeros(4), mu=mu, sigma=sigma,
        )

    def test_acquisition_arithmetic(self):
        cands = [self.make_candidate(5.0, 0.0), self.make_candidate(4.0, 2.0)]
        ranking = fallback_rank(cands, [])
        assert ranking[0] == 1  # 4 + 2 = 6 beats 5 + 0 = 5

    def test_retain_floor_demotion(self):
        cands = [
            self.make_candidate(9.0, 1.0, retain=0.001),
            self.make_candidate(1.0, 0.0, retain=0.5),
            self.make_candidate(2.0, 0.0, retain=0.4),
        ]
        ranking = fallback_rank(cands, [])
        assert ranking[-1] == 0  # degenerate subset goes to the tail
        assert ranking == [2, 1, 0]

    def test_five_candidate_sort_oracle(self):
        mus = [1.0, 3.0, 2.0, 5.0, 4.0]
        sigmas = [0.5, 0.1, 2.0, 0.0, 0.2]
        cands = [self.make_candidate(m, s) for m, s in zip(mus, sigmas)]
        expected = sorted(range(5), key=lambda i: (-(mus[i] + sigmas[i]), i))
        assert fallback_rank(cands, []) == expected

    def test_tie_by_candidate_index(self):
        cands = [self.make_candidate(1.0, 0.0), self.make_candidate(1.0, 0.0)]
        assert fallback_rank(cands, []) == [0, 1]


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
        assert strip_json_payload('[1, 2]') == "[1, 2]"
        assert strip_json_payload('```json\n[1, 2]\n```') == "[1, 2]"
        assert strip_json_payload('noise {"a": 1} trailing') == '{"a": 1}'

    def test_proposer_stub_consumed(self, small_pool, tmp_path):
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "proposer.py", PROPOSER_STUB)
        events = []
        config = SearchConfig(
            budget=5, master_seed=20, assistant_mode="external",
            assistant_commands={"proposer": cmd}, assistant_timeout=30.0,
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
            budget=4, master_seed=21, assistant_mode="external",
            assistant_commands={"proposer": cmd}, assistant_timeout=30.0,
        )
        result = run_search(config, pool, signals, constant_oracle())
        assert result.records[3].recipe.operators() == ["ngram_topfrac"]

    def test_ranker_schema_violation_falls_back(self, small_pool, tmp_path):
        pool, signals = small_pool
        cmd = self.write_stub(tmp_path, "ranker.py", RANKER_MISSING_KEY_STUB)
        events = []
        config = SearchConfig(
            budget=5, master_seed=22, assistant_mode="external",
            assistant_commands={"ranker": cmd}, assistant_timeout=30.0,
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
            budget=8, master_seed=23, assistant_mode="external",
            assistant_commands={role: fail_cmd for role in
                                ("summarizer", "proposer", "ranker", "reseeder")},
            assistant_timeout=30.0,
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
