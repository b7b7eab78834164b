"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The per-criterion lines go to the unbuffered original stderr so they survive
pytest's capture. Thresholds for the search-quality criteria are derived from
the enumeration performed here, not asserted a priori.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from recipesearch.cli import main as cli_main
from recipesearch.controller import SearchConfig, run_search
from recipesearch.operators import (
    OperatorSpec,
    Subset,
    apply_mix,
    apply_semdedup,
    apply_top_fraction,
    default_catalog,
    minibatch_kmeans,
)
from recipesearch.oracle import (
    EvalRequest,
    SyntheticOracle,
    SyntheticOracleSpec,
)
from recipesearch.pool import descending_rank
from recipesearch.recipe import Recipe, encode_recipe, execute_recipe
from recipesearch.state import compute_state
from recipesearch.surrogate import fit_gp, predict_gp

from conftest import TINY_TARGETS, make_synthetic_pool
from test_pool import ingested_entropy
from test_surrogate import (
    TWO_POINT_MU_AT_X1,
    TWO_POINT_SIGMA_AT_X1,
    dense_oracle,
)


@contextmanager
def criterion(announce, num: int, description: str, limit_s: float | None = None):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        if limit_s is not None:
            assert elapsed < limit_s, f"took {elapsed:.1f}s, limit {limit_s}s"
    except BaseException:
        announce(f"[ACCEPTANCE {num}] FAIL - {description}")
        raise
    announce(f"[ACCEPTANCE {num}] PASS - {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def pool200():
    return make_synthetic_pool(n_samples=200, sae_dim=64, seed=11)


@pytest.fixture(scope="module")
def pool1000():
    return make_synthetic_pool(n_samples=1000, sae_dim=64, seed=29)


PLANTED = SyntheticOracleSpec(
    family="planted_quadratic", offset=1.0,
    weights={"retain_ratio": 1.0, "token_ratio": 0.5},
    targets={"retain_ratio": 0.5, "token_ratio": 0.5},
)

ENUM_OPERATORS = ("ngram_topfrac", "ifd_topfrac", "random_k")


@pytest.fixture(scope="module")
def enumeration(pool200):
    """Enumerate a discretized recipe space (the oracle for criteria 6 and 7).

    Atoms: two fraction selectors on a 4-point grid plus seeded random-k at
    four sizes; all length-1 and length-2 compositions (156 recipes).
    """
    pool, signals = pool200
    fracs = (0.25, 0.5, 0.75, 1.0)
    ks = (50, 100, 150, 200)
    atoms = [OperatorSpec("ngram_topfrac", {"fraction": f}) for f in fracs]
    atoms += [OperatorSpec("ifd_topfrac", {"fraction": f}) for f in fracs]
    atoms += [OperatorSpec("random_k", {"k": k, "seed": 0}) for k in ks]
    singles = [Recipe((a,)) for a in atoms]
    space = singles + [Recipe((a, b)) for a, b in itertools.product(atoms, atoms)]

    def score(recipe: Recipe) -> float:
        subset = execute_recipe(recipe, signals)
        state = compute_state(subset, signals)
        request = EvalRequest(run_id="enum", step=0, recipe=recipe, subset=subset)
        return SyntheticOracle(PLANTED).evaluate(request, state).score

    all_scores = np.array([score(r) for r in space])
    single_scores = np.array([score(r) for r in singles])
    return {
        "space_size": len(space),
        "all_scores": all_scores,
        "single_scores": single_scores,
        "optimum": float(all_scores.max()),
        "median": float(np.median(all_scores)),
        "single_max": float(single_scores.max()),
    }


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, request, state):
        self.calls += 1
        return self.inner.evaluate(request, state)


def test_c1_encoding_fidelity(announce):
    with criterion(announce, 1, "recipe encoding reproduces the 3-operator reference vector", limit_s=1.0):
        catalog = default_catalog(10, operators=("mona_filter", "semdedup", "random_k"))
        recipe = Recipe((
            OperatorSpec("mona_filter", {"fraction": 0.70}),
            OperatorSpec("random_k", {"k": 3, "seed": 0}),
        ))
        assert encode_recipe(recipe, catalog).tolist() == [1, 0.70, 0, 0.00, 1, 0.30]


def test_c2_operator_formula_suite(pool200, tiny, tmp_path, announce):
    with criterion(announce, 2, "operator formula suite (relevance, entropy, top-frac, mix, dedup)", limit_s=5.0):
        # weighted-Jaccard relevance of each sample to each benchmark target,
        # as ingestion computes it, against a dense reference
        _, tiny_signals = tiny
        targets = np.zeros((TINY_TARGETS["sae_dim"], len(tiny_signals.benchmarks)))
        for col, name in enumerate(tiny_signals.benchmarks):
            for i, v in TINY_TARGETS["benchmarks"][name]:
                targets[i, col] = v
        acts = tiny_signals.activations.toarray()
        reference = [[np.minimum(a, t).sum() / np.maximum(a, t).sum() for t in targets.T]
                     for a in acts]
        assert tiny_signals.relevance == pytest.approx(np.array(reference), abs=1e-12)
        assert tiny_signals.relevance[:, 0] == pytest.approx([1 / 3, 1.0, 0.0, 0.0], abs=1e-12)
        # unigram entropy in bits, as ingestion computes it
        entropy = ingested_entropy(tmp_path, [("a a a a", ""), ("a b", ""), ("a a b b c c", "")])
        assert entropy[0] == 0.0
        assert entropy[1] == pytest.approx(1.0, abs=1e-12)
        assert entropy[2] == pytest.approx(math.log2(3), abs=1e-12)
        # ceil(alpha * n) retention counts
        pool, signals = pool200
        for alpha, n in ((0.30, 10), (0.5, 7), (1.0, 13), (0.07, 25)):
            subset = Subset(np.arange(n), pool)
            rank = descending_rank(signals.ifd)
            assert len(apply_top_fraction(subset, rank, alpha)) == math.ceil(alpha * n)
        # mix is union with dedup by id
        u = apply_mix(Subset(np.arange(0, 4), pool), Subset(np.arange(2, 6), pool))
        assert len(u) == 6
        # semdedup: kept same-cluster pairs stay below tau, brute-forced on 64
        subset = Subset(np.arange(64), pool)
        tau, seed, k = 0.9, 5, 4
        kept = apply_semdedup(subset, signals, n_clusters=k, tau=tau, seed=seed)
        x = signals.activations[subset.positions]
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        import scipy.sparse as sp

        xn = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
        labels = minibatch_kmeans(xn, k, seed)
        dense = xn.toarray()
        rows = {int(p): i for i, p in enumerate(subset.positions)}
        kept_rows = [rows[int(p)] for p in kept.positions]
        for i in kept_rows:
            for j in kept_rows:
                if i < j and labels[i] == labels[j]:
                    assert float(dense[i] @ dense[j]) < tau


def test_c3_gp_oracle_equivalence(announce):
    with criterion(announce, 3, "GP matches dense solve (1e-8), interpolation (1e-4), hand case", limit_s=1.0):
        rng = np.random.default_rng(77)
        for n in (1, 2, 3, 4, 5):
            x = rng.uniform(0, 1, size=(n, 4))
            y = rng.uniform(-2, 2, size=n)
            model = fit_gp(x, y)
            for q in rng.uniform(0, 1, size=(5, 4)):
                mu_e, s_e = dense_oracle(x, y, q[None, :])[0]
                mu, s = predict_gp(model, q)
                assert mu == pytest.approx(mu_e, abs=1e-8)
                assert s == pytest.approx(s_e, abs=1e-8)
        # training-point interpolation within 1e-4
        x = [[0.0, 0.0], [1.0, 0.2], [0.4, 0.9]]
        y = [0.0, 0.5, 1.0]
        model = fit_gp(x, y)
        for xi, yi in zip(x, y):
            mu, _ = predict_gp(model, xi)
            assert mu == pytest.approx(yi, abs=1e-4)
        # frozen 2-point hand solve
        model = fit_gp([[0.0, 0.0], [1.0, 1.0]], [1.0, 3.0])
        mu, sigma = predict_gp(model, [0.0, 0.0])
        assert mu == pytest.approx(TWO_POINT_MU_AT_X1, abs=1e-10)
        assert sigma == pytest.approx(TWO_POINT_SIGMA_AT_X1, abs=1e-10)


def test_c4_structural_contract(pool1000, announce):
    with criterion(announce, 4, "B=15/P=4/M=5 constant-oracle structure on a 1000-sample pool", limit_s=10.0):
        pool, signals = pool1000
        oracle = CountingOracle(
            SyntheticOracle(SyntheticOracleSpec(family="constant", value=10.0))
        )
        events = []
        config = SearchConfig(budget=15, patience=4, candidates_per_step=5,
                              master_seed=1)
        result = run_search(config, pool, signals, oracle, sink=events.append)
        evals = [e for e in events if e["type"] == "eval"]
        cache_hits = sum(1 for e in evals if e["cache_hit"])
        assert len(evals) == 15
        assert oracle.calls + cache_hits == 15
        assert sum(1 for e in evals if e["is_warmup"]) == 3
        assert result.incumbent_step == 1  # all-equal scores, earliest wins
        reseed_steps = [e["step"] for e in events if e["type"] == "reseed"]
        assert reseed_steps == [7, 11, 15]


def test_c5_determinism(synth_files, tmp_path, announce):
    with criterion(announce, 5, "byte-identical ledgers and matched-seed manifests", limit_s=20.0):
        pool_path, signals_path, targets_path = synth_files
        data = ["--pool", pool_path, "--signals", signals_path,
                "--targets", targets_path]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "family": "planted_quadratic", "offset": 1.0,
            "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.5},
        }))
        ledgers = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            code = cli_main(
                ["run"] + data + ["--out-dir", str(out), "--budget", "8",
                                  "--master-seed", "13",
                                  "--oracle-spec", str(spec_path)]
            )
            assert code == 0
            ledgers.append((out / "ledger.jsonl").read_bytes())
        assert ledgers[0] == ledgers[1]

        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(json.dumps({
            "steps": [
                {"operator": "ngram_topfrac", "params": {"fraction": 0.9}},
                {"operator": "mona_filter", "params": {"fraction": 0.85}},
                {"operator": "semdedup",
                 "params": {"n_clusters": 3, "tau": 0.88, "seed": 7}},
                {"operator": "random_k", "params": {"k": 45, "seed": 0}},
            ]
        }))
        manifests = set()
        for rk_seed in (42, 256, 1024):
            blobs = []
            for attempt in range(2):
                out = tmp_path / f"exec_{rk_seed}.jsonl"
                code = cli_main(
                    ["exec"] + data + ["--recipe", str(recipe_path),
                                       "--out", str(out),
                                       "--seeds", "7", str(rk_seed)]
                )
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]
            manifests.add(blobs[0])
        assert len(manifests) == 3


def test_c6_containment(enumeration, announce):
    with criterion(announce, 6, "enumerated recipe-space max >= single-operator max (156 recipes)", limit_s=120.0):
        assert enumeration["space_size"] <= 500
        assert enumeration["optimum"] >= enumeration["single_max"]


def test_c7_search_quality_vs_random_select(pool200, enumeration, announce):
    with criterion(announce, 7, "median best@15 over 20 seeds: full search >= random select", limit_s=600.0):
        pool, signals = pool200
        catalog = default_catalog(len(pool), operators=ENUM_OPERATORS)
        full_best, random_best = [], []
        for seed in range(20):
            full = run_search(
                SearchConfig(budget=15, master_seed=seed),
                pool, signals, SyntheticOracle(PLANTED), catalog=catalog,
            )
            ablated = run_search(
                SearchConfig(budget=15, master_seed=seed, random_select=True),
                pool, signals, SyntheticOracle(PLANTED), catalog=catalog,
            )
            full_best.append(full.incumbent_score)
            random_best.append(ablated.incumbent_score)
        median_full = float(np.median(full_best))
        median_random = float(np.median(random_best))
        optimum = enumeration["optimum"]
        enum_median = enumeration["median"]
        # threshold derived from the enumeration: the guided search must close
        # at least 75% of the gap between a typical space draw and the optimum
        threshold = optimum - 0.25 * (optimum - enum_median)
        announce(
            f"  median full={median_full:.6f} random={median_random:.6f} "
            f"enum optimum={optimum:.6f} enum median={enum_median:.6f} "
            f"derived threshold={threshold:.6f}"
        )
        assert median_full >= median_random
        assert median_full >= threshold
        assert median_full <= optimum + 1e-9  # sanity: cannot beat the oracle


def test_c8_degradation(pool200, announce):
    with criterion(announce, 8, "failing external assistant degrades to fallback structure", limit_s=10.0):
        pool, signals = pool200
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=1.0,
            weights={"retain_ratio": 1.0}, targets={"retain_ratio": 0.5},
        )
        fallback_events, degraded_events = [], []
        run_search(SearchConfig(budget=10, master_seed=31), pool, signals,
                   SyntheticOracle(spec), sink=fallback_events.append)
        failing = [sys.executable, "-c", "import sys; sys.exit(1)"]
        config = SearchConfig(
            budget=10, master_seed=31,
            assistant_commands={r: failing for r in
                                ("summarizer", "proposer", "ranker", "reseeder")},
        )
        run_search(config, pool, signals, SyntheticOracle(spec),
                   sink=degraded_events.append)
        failures = [e for e in degraded_events if e["type"] == "assistant_failure"]
        assert failures, "assistant failures must be logged"
        f_evals = [e for e in fallback_events if e["type"] == "eval"]
        d_evals = [e for e in degraded_events if e["type"] == "eval"]
        assert len(f_evals) == len(d_evals) == 10
        assert [e["step"] for e in d_evals] == list(range(1, 11))
        f_reseeds = [e["step"] for e in fallback_events if e["type"] == "reseed"]
        d_reseeds = [e["step"] for e in degraded_events if e["type"] == "reseed"]
        assert f_reseeds == d_reseeds
        best = -np.inf
        for e in d_evals:
            best = max(best, e["score"])
        assert best == max(e["score"] for e in d_evals)
