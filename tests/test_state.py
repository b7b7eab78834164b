from __future__ import annotations

import json
import math

import numpy as np
import pytest

from recipesearch.operators import Subset
from recipesearch.pool import load_pool, load_signals
from recipesearch.state import StateError, compute_snar, compute_state

from conftest import write_jsonl


@pytest.fixture()
def two_sample(tmp_path):
    """Hand-set signals small enough to verify every field by hand."""
    rows = [
        {"id": "p", "instruction": "one two", "response": "three", "source": "s"},
        {"id": "q", "instruction": "a b c", "response": "d e f g", "source": "s"},
    ]
    sigs = [
        {"id": "p", "ifd": 2.0, "varentropy": 1.0, "ao": 1.0, "sparse": [[0, 1.0]]},
        {"id": "q", "ifd": 1.0, "varentropy": 3.0, "ao": 2.0,
         "sparse": [[1, 1.0], [2, 1.0]]},
    ]
    targets = {"sae_dim": 4, "benchmarks": {"g": [[0, 1.0]], "h": [[1, 2.0]]}}
    write_jsonl(tmp_path / "p.jsonl", rows)
    write_jsonl(tmp_path / "s.jsonl", sigs)
    (tmp_path / "t.json").write_text(json.dumps(targets))
    pool = load_pool(str(tmp_path / "p.jsonl"))
    signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
    return pool, signals


class TestSnar:
    def test_single_sample_two_features(self, tmp_path):
        rows = [{"id": "a", "instruction": "q", "response": "r", "source": "s"}]
        sigs = [{"id": "a", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0,
                 "sparse": [[0, 0.2], [3, 1.0]]}]
        targets = {"sae_dim": 4, "benchmarks": {"t": [[0, 1.0]]}}
        write_jsonl(tmp_path / "p.jsonl", rows)
        write_jsonl(tmp_path / "s.jsonl", sigs)
        (tmp_path / "t.json").write_text(json.dumps(targets))
        pool = load_pool(str(tmp_path / "p.jsonl"))
        signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
        rates = compute_snar(Subset.full(pool), signals)
        assert rates.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_two_samples_half_rates(self, two_sample):
        pool, signals = two_sample
        rates = compute_snar(Subset.full(pool), signals)
        assert rates.tolist() == [0.5, 0.5, 0.5, 0.0]

    def test_full_pool_matches_cached_reference(self, synth):
        pool, signals = synth
        rates = compute_snar(Subset.full(pool), signals)
        assert np.array_equal(rates, signals.pool_snar)

    def test_magnitudes_ignored(self, two_sample):
        pool, signals = two_sample
        only_q = Subset.from_ids(["q"], pool)
        rates = compute_snar(only_q, signals)
        assert rates.tolist() == [0.0, 1.0, 1.0, 0.0]


class TestComputeState:
    def test_full_pool_is_the_reference_point(self, synth):
        pool, signals = synth
        state = compute_state(Subset.full(pool), pool, signals)
        assert state.retain_ratio == 1.0
        assert state.token_ratio == pytest.approx(1.0, abs=1e-12)
        assert state.distribution_drift == pytest.approx(0.0, abs=1e-12)
        assert state.mean_ifd == pytest.approx(1.0, abs=1e-12)
        assert state.mean_varentropy == pytest.approx(1.0, abs=1e-12)

    def test_half_pool_count_vs_token_decoupling(self, synth):
        pool, signals = synth
        half = Subset(np.arange(len(pool) // 2), pool)
        state = compute_state(half, pool, signals)
        assert state.retain_ratio == 0.5
        assert state.token_ratio != 0.5  # token mass is not uniform across samples

    def test_two_sample_hand_arithmetic(self, two_sample):
        pool, signals = two_sample
        state = compute_state(Subset.from_ids(["p"], pool), pool, signals)
        # relevance rows for p: 1.0 against g, 0.0 against h
        assert state.score_mean == pytest.approx(0.5, abs=1e-12)
        assert state.score_std == pytest.approx(0.5, abs=1e-12)
        assert state.score_per_task == {"g": 1.0, "h": 0.0}
        assert state.retain_ratio == 0.5
        assert state.token_ratio == pytest.approx(0.3, abs=1e-12)
        expected_drift = math.sqrt(0.25 + 0.25 + 0.25) / 2.0
        assert state.distribution_drift == pytest.approx(expected_drift, abs=1e-12)
        assert state.mean_ifd == pytest.approx(2.0 / 1.5, abs=1e-12)
        assert state.mean_varentropy == pytest.approx(0.5, abs=1e-12)

    def test_empty_subset_rejected(self, synth):
        pool, signals = synth
        with pytest.raises(StateError, match="empty subset"):
            compute_state(Subset(np.empty(0, np.int64), pool), pool, signals)

    def test_drift_bounded(self, synth):
        pool, signals = synth
        rng = np.random.default_rng(23)
        for _ in range(25):
            size = int(rng.integers(1, len(pool) + 1))
            pos = np.sort(rng.choice(len(pool), size=size, replace=False))
            state = compute_state(Subset(pos, pool), pool, signals)
            assert 0.0 <= state.distribution_drift <= 1.0

    def test_ratio_consistency(self, synth):
        pool, signals = synth
        rng = np.random.default_rng(31)
        for _ in range(10):
            size = int(rng.integers(1, len(pool) + 1))
            pos = np.sort(rng.choice(len(pool), size=size, replace=False))
            subset = Subset(pos, pool)
            state = compute_state(subset, pool, signals)
            assert math.isclose(state.retain_ratio * len(pool), len(subset), rel_tol=1e-12)
            token_sum = int(pool.token_counts[pos].sum())
            assert math.isclose(
                state.token_ratio * pool.total_tokens, token_sum, rel_tol=1e-12
            )

    def test_std_against_brute_force(self, synth):
        pool, signals = synth
        subset = Subset(np.arange(37), pool)
        state = compute_state(subset, pool, signals)
        flat = []
        for pos in subset.positions:
            for j in range(len(signals.benchmarks)):
                flat.append(float(signals.relevance[pos, j]))
        mean = sum(flat) / len(flat)
        var = sum((v - mean) ** 2 for v in flat) / len(flat)  # population
        assert state.score_mean == pytest.approx(mean, abs=1e-12)
        assert state.score_std == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_token_ratio_monotone_under_nesting(self, synth):
        pool, signals = synth
        rng = np.random.default_rng(44)
        big = np.sort(rng.choice(len(pool), size=120, replace=False))
        small = np.sort(rng.choice(big, size=40, replace=False))
        s_small = compute_state(Subset(small, pool), pool, signals)
        s_big = compute_state(Subset(big, pool), pool, signals)
        assert s_small.token_ratio <= s_big.token_ratio

    def test_serialized_field_names(self, two_sample):
        pool, signals = two_sample
        state = compute_state(Subset.full(pool), pool, signals)
        doc = state.to_dict()
        assert list(doc) == [
            "score_mean", "score_std", "score_per_task", "retain_ratio",
            "token_ratio", "distribution_drift", "mean_ifd", "mean_varentropy",
        ]
