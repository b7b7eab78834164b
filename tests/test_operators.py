from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipesearch import operators
from recipesearch.operators import (
    KMEANS_BATCH_SIZE,
    KMEANS_EPOCHS,
    SEMDEDUP_BLOCK_ROWS,
    OperatorError,
    OperatorSpec,
    Subset,
    apply_mix,
    apply_mona_union,
    apply_random_k,
    apply_semdedup,
    apply_step,
    apply_top_fraction,
    default_catalog,
    minibatch_kmeans,
    semdedup_greedy_pass,
    validate_spec,
)
from recipesearch.pool import PoolError, descending_rank, load_pool, load_signals
from recipesearch.recipe import Recipe, recipe_from_obj, recipe_to_obj

from conftest import subset_from_ids, write_jsonl


def brute_force_top(ids, scores, keep):
    """Independent oracle: stable sort by (-score, pool position)."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], i))
    return sorted(ids[i] for i in order[:keep])


class TestTopSelectors:
    def test_fraction_count(self, synth):
        pool, signals = synth
        subset = Subset(np.arange(10), pool)
        scores = signals.ifd[subset.positions]
        out = apply_top_fraction(subset, descending_rank(signals.ifd), 0.30)
        assert len(out) == 3  # ceil(0.3 * 10)
        expected = brute_force_top(subset.ids(), list(scores), 3)
        assert sorted(out.ids()) == expected

    def test_fraction_identity(self, tiny):
        pool, _ = tiny
        subset = Subset.full(pool)
        out = apply_top_fraction(subset, descending_rank(np.array([1.0, 2.0, 3.0, 4.0])), 1.0)
        assert out.ids() == subset.ids()

    def test_fraction_tie_break_pool_order(self, tiny):
        pool, _ = tiny
        subset = Subset.full(pool)
        out = apply_top_fraction(subset, descending_rank(np.zeros(4)), 0.5)
        assert out.ids() == ["a", "b"]

    def test_empty_subset_rejected(self, tiny):
        pool, _ = tiny
        with pytest.raises(OperatorError, match="empty input subset"):
            apply_top_fraction(Subset(np.empty(0, np.int64), pool),
                               descending_rank(np.zeros(4)), 0.5)

    def test_fraction_monotone_nesting(self, synth):
        pool, signals = synth
        subset = Subset.full(pool)
        rank = descending_rank(signals.ngram_entropy)
        prev = set()
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            cur = set(apply_top_fraction(subset, rank, alpha).ids())
            assert prev <= cur
            prev = cur

    def test_nan_scores_rejected(self, tiny):
        pool, signals = tiny
        scores = np.array([1.0, np.nan, 0.5, 2.0])
        with pytest.raises(PoolError, match="NaN"):
            descending_rank(scores)
        with pytest.raises(PoolError, match="NaN"):
            dataclasses.replace(signals, ao=scores)

    def test_scores_must_align_with_subset(self, tiny):
        pool, _ = tiny
        with pytest.raises(OperatorError, match="rank of .* shape"):
            apply_top_fraction(Subset.full(pool), descending_rank(np.zeros(3)), 0.5)
        # pool-length scores in place of their ranks
        with pytest.raises(OperatorError, match="integer ranks"):
            apply_top_fraction(Subset.full(pool), np.array([1.0, 2.0, 3.0, 4.0]), 0.5)


def stable_argsort_top(positions, scores, keep):
    """Reference: the first ``keep`` positions of a stable sort on -score."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return np.sort(positions[order[:keep]])


def per_id_digest(ids):
    """Reference: SHA-256 over the sorted ids, each followed by a NUL byte."""
    h = hashlib.sha256()
    for sid in sorted(ids):
        h.update(sid.encode())
        h.update(b"\x00")
    return h.hexdigest()


# few distinct values, so most draws hold ties; the infinities sort like any value
TIED_SCORES = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf])
# 1e-9 keeps one sample, 1.0 keeps all of them
FRACTIONS = st.sampled_from([1e-9, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)


class TestSelectorProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(TIED_SCORES | st.sampled_from([0.0, -0.0])
                        | st.floats(allow_nan=False), min_size=1, max_size=60),
        data=st.data(),
    )
    @example(values=[0.0, -0.0, 0.0, -0.0, 0.0], data=None)  # equal under comparison
    @example(values=[-np.inf, np.inf, 1.0, np.inf, -np.inf], data=None)
    @example(values=[1.5], data=None)  # one row
    def test_descending_rank_matches_stable_argsort(self, values, data):
        scores = np.array(values)
        rank = descending_rank(scores)
        # reference: Python's stable sort of the row numbers on -score
        expected = np.empty(len(values), dtype=np.int64)
        expected[sorted(range(len(values)), key=lambda i: -values[i])] = range(len(values))
        assert rank.dtype == np.int64 and not rank.flags.writeable
        assert np.array_equal(rank, expected)
        where = 0 if data is None else data.draw(st.integers(0, len(values)))
        with pytest.raises(PoolError, match="NaN"):
            descending_rank(np.insert(scores, where, np.nan))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.sets(st.integers(0, 199), min_size=1, max_size=200),
        values=st.lists(TIED_SCORES, min_size=200, max_size=200),
        alpha=FRACTIONS,
    )
    @example(rows=set(range(200)), values=[0.5] * 200, alpha=0.3)  # all equal
    @example(rows={7}, values=[np.inf] * 200, alpha=1e-9)  # one row
    def test_top_fraction_matches_stable_argsort(self, synth, rows, values, alpha):
        pool, _ = synth
        subset = Subset(np.array(sorted(rows)), pool)
        scores = np.array(values)[subset.positions]
        out = apply_top_fraction(subset, descending_rank(np.array(values)), alpha)
        keep = math.ceil(alpha * len(subset))
        assert len(out) == keep
        assert np.array_equal(out.positions, stable_argsort_top(subset.positions, scores, keep))

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.sets(st.integers(0, 199), min_size=1, max_size=200),
        columns=st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                  min_size=200, max_size=200), min_size=1, max_size=3),
        alpha=FRACTIONS,
    )
    def test_mona_union_matches_stable_argsort(self, synth, rows, columns, alpha):
        pool, signals = synth
        relevance = np.array(columns).T
        signals = dataclasses.replace(
            signals, benchmarks=tuple(f"b{j}" for j in range(len(columns))),
            relevance=relevance,
        )
        subset = Subset(np.array(sorted(rows)), pool)
        keep = math.ceil(alpha * len(subset))
        expected = np.unique(np.concatenate([
            stable_argsort_top(subset.positions, relevance[subset.positions, j], keep)
            for j in range(len(columns))
        ]))
        out = apply_mona_union(subset, signals, alpha)
        assert np.array_equal(out.positions, expected)

    # ties, zeros and both signs of zero across the whole 200-sample pool
    WHOLE_POOL_SCORES = st.lists(TIED_SCORES | st.sampled_from([0.0, -0.0]),
                                 min_size=200, max_size=200)

    @settings(max_examples=100, deadline=None)
    @given(values=WHOLE_POOL_SCORES, alpha=FRACTIONS)
    @example(values=[0.0, -0.0] * 100, alpha=0.5)
    def test_whole_pool_top_fraction_matches_stable_argsort(self, synth, values, alpha):
        pool, _ = synth
        partition = operators._top_mask
        partitions = []

        def spy(ranks, keep):
            partitions.append(keep)
            return partition(ranks, keep)

        subset = Subset.full(pool)
        keep = math.ceil(alpha * len(pool))
        expected = stable_argsort_top(subset.positions, values, keep)
        rank = descending_rank(np.array(values))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_top_mask", spy)
            assert np.array_equal(apply_top_fraction(subset, rank, alpha).positions, expected)
            assert partitions == []
            # distinct ranks, not 0..n-1: fewer than keep of them lie below keep,
            # unless keep is 1 and rank 0 alone does
            assert np.array_equal(apply_top_fraction(subset, 2 * rank, alpha).positions,
                                  expected)
            assert partitions == ([keep] if keep > 1 else [])

    @settings(max_examples=60, deadline=None)
    @given(columns=st.lists(WHOLE_POOL_SCORES, min_size=1, max_size=3), alpha=FRACTIONS)
    def test_whole_pool_mona_union_matches_stable_argsort(self, synth, columns, alpha):
        pool, signals = synth
        relevance = np.array(columns).T
        signals = dataclasses.replace(
            signals, benchmarks=tuple(f"b{j}" for j in range(len(columns))),
            relevance=relevance,
        )
        subset = Subset.full(pool)
        keep = math.ceil(alpha * len(pool))
        expected = np.unique(np.concatenate([
            stable_argsort_top(subset.positions, relevance[:, j], keep)
            for j in range(len(columns))
        ]))
        assert np.array_equal(apply_mona_union(subset, signals, alpha).positions, expected)

    def test_full_subsets_share_one_read_only_array(self, synth):
        pool, _ = synth
        positions = Subset.full(pool).positions
        assert Subset.full(pool).positions is positions
        assert not positions.flags.writeable
        assert np.array_equal(positions, np.arange(len(pool)))


class TestDigestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    min_size=1, max_size=12),
            min_size=1, max_size=40, unique=True,
        ),
        data=st.data(),
    )
    # U+FF21 sorts before U+1F600 by code point but after it in UTF-16; a pool
    # id holds no NUL, the byte that ends each id in the hashed bytes
    @example(ids=["b", "a", "\u00e9", "ab", "\u4e2d\u6587", "a\x01", "\U0001f600z", "\uff21"],
             data=None)
    # every id of one width: ASCII, then multi-byte, each entry 4 bytes with its NUL
    @example(ids=["s002", "s000", "s010", "s001"], data=None)
    @example(ids=["\u00e9a", "\u4e2d", "a\u00e9", "xyz", "\u00e9b"], data=None)
    # entries of 3, 2 and 4 bytes: 9 bytes in all, a multiple of the first width
    @example(ids=["ab", "c", "def"], data=None)
    def test_matches_per_id_loop(self, tmp_path_factory, ids, data):
        path = tmp_path_factory.mktemp("ids") / "pool.jsonl"
        write_jsonl(path, [{"id": i, "instruction": "q", "response": "r", "source": "s"}
                           for i in ids])
        pool = load_pool(str(path))
        fixed_width = len({len(i.encode()) for i in ids}) == 1
        assert (pool.id_rows is not None) == fixed_width
        rows = [set(range(len(ids))), {len(ids) - 1}, set()]
        if data is not None:
            rows.append(data.draw(st.sets(st.integers(0, len(ids) - 1), min_size=1)))
        for chosen in rows:
            subset = Subset(np.array(sorted(chosen), dtype=np.int64), pool)
            assert subset.content_hash() == per_id_digest(subset.ids())

    def test_synthetic_pool_hashes_fixed_width_rows(self, synth):
        pool, _ = synth
        assert pool.id_rows is not None and not pool.id_rows.flags.writeable
        assert pool.id_rows.tobytes() == pool.id_bytes.tobytes()
        subset = Subset(np.arange(0, len(pool), 3), pool)
        assert subset.content_hash() == per_id_digest(subset.ids())


def dense_relevance(a, t):
    """Reference weighted Jaccard of two dense nonnegative vectors."""
    return np.minimum(a, t).sum() / np.maximum(a, t).sum()


def relevance_matrix(tmp_path, vectors, targets):
    """``signals.relevance`` of a pool whose samples activate ``vectors``.

    Target ``i`` is benchmark ``t{i:03d}``, so column order is target order.
    """
    def pairs(vec):
        return [[i, float(v)] for i, v in enumerate(vec) if v]

    ids = [f"x{i}" for i in range(len(vectors))]
    write_jsonl(tmp_path / "pool.jsonl", [
        {"id": sid, "instruction": "i", "response": "r", "source": "s"} for sid in ids
    ])
    write_jsonl(tmp_path / "signals.jsonl", [
        {"id": sid, "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": pairs(vec)}
        for sid, vec in zip(ids, vectors)
    ])
    benchmarks = {f"t{i:03d}": pairs(t) for i, t in enumerate(targets)}
    (tmp_path / "targets.json").write_text(
        json.dumps({"sae_dim": len(targets[0]), "benchmarks": benchmarks})
    )
    pool = load_pool(str(tmp_path / "pool.jsonl"))
    signals = load_signals(str(tmp_path / "signals.jsonl"), str(tmp_path / "targets.json"), pool)
    return signals.relevance


def relevance_of(tmp_path, vectors, target):
    """The relevance of each of ``vectors`` to the one ``target``."""
    return relevance_matrix(tmp_path, vectors, [target])[:, 0]


class TestMonaScore:
    """The relevance that ingestion computes, against ``dense_relevance``."""

    def test_identical_vectors(self, tmp_path):
        v = [0.3, 0, 0, 0, 0, 1.2]
        assert relevance_of(tmp_path, [v], v)[0] == pytest.approx(1.0)

    def test_disjoint_supports(self, tmp_path):
        assert relevance_of(tmp_path, [[1.0, 0.0]], [0.0, 1.0])[0] == 0.0

    def test_hand_case(self, tmp_path):
        got = relevance_of(tmp_path, [[1.0, 0.0]], [0.5, 0.5])[0]
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_and_range(self, tmp_path):
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(100):
            a = rng.uniform(0, 2, size=8) * (rng.random(8) < 0.5)
            t = rng.uniform(0, 2, size=8) * (rng.random(8) < 0.5)
            if a.sum() == 0 and t.sum() == 0:
                continue
            pairs.append((a, t))

        def scores(rows, targets):
            """Score each pair as sample ``rows[i]`` against target ``targets[i]``."""
            keep = [i for i, t in enumerate(targets) if t.any()]  # targets must be nonzero
            relevance = relevance_matrix(tmp_path, [rows[i] for i in keep],
                                         [targets[i] for i in keep])
            return dict(zip(keep, np.diag(relevance)))

        s_at = scores([a for a, _ in pairs], [t for _, t in pairs])
        s_ta = scores([t for _, t in pairs], [a for a, _ in pairs])
        for i in range(len(pairs)):
            # a pair with one all-zero side is scored one way only, and must be 0
            forward, backward = s_at.get(i, 0.0), s_ta.get(i, 0.0)
            assert forward == pytest.approx(backward, abs=1e-14)
            assert 0.0 <= forward <= 1.0

    def test_both_zero_rejected(self, tmp_path):
        assert relevance_of(tmp_path, [np.zeros(4)], [1.0, 0, 0, 0])[0] == 0.0
        with pytest.raises(PoolError, match="all-zero"):
            relevance_of(tmp_path, [np.zeros(4)], np.zeros(4))

    def test_dense_and_pairs_agree(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = rng.uniform(0, 2, size=(50, 16)) * (rng.random((50, 16)) < 0.3)
        target = rng.uniform(0.1, 2, size=16) * (np.arange(16) % 3 == 0)
        expected = [dense_relevance(a, target) for a in vectors]
        assert relevance_of(tmp_path, vectors, target) == pytest.approx(expected, abs=1e-12)


def signals_for_targets(tmp_path, tiny_files, pool, benchmarks):
    """The tiny signals loaded against a targets file holding ``benchmarks``."""
    tpath = tmp_path / f"targets_{'_'.join(benchmarks)}.json"
    tpath.write_text(json.dumps({"sae_dim": 8, "benchmarks": benchmarks}))
    return load_signals(tiny_files[1], str(tpath), pool)


T1 = [[0, 0.5], [1, 0.5]]


class TestMonaUnion:
    def test_single_benchmark_equals_top_fraction(self, tiny, tmp_path, tiny_files):
        pool, _ = tiny
        signals = signals_for_targets(tmp_path, tiny_files, pool, {"t1": T1})
        subset = Subset.full(pool)
        by_union = apply_mona_union(subset, signals, 0.5)
        by_frac = apply_top_fraction(subset, descending_rank(signals.relevance[:, 0]), 0.5)
        assert by_union.ids() == by_frac.ids()

    def test_identical_targets_idempotent_union(self, tiny, tmp_path, tiny_files):
        pool, _ = tiny
        two = signals_for_targets(tmp_path, tiny_files, pool, {"t1": T1, "t1b": T1})
        one = signals_for_targets(tmp_path, tiny_files, pool, {"t1": T1})
        subset = Subset.full(pool)
        both = apply_mona_union(subset, two, 0.25)
        single = apply_mona_union(subset, one, 0.25)
        assert both.ids() == single.ids()

    def test_disjoint_top1_union_size_two(self, tiny):
        # top-1 by t1 is b (score 1.0), top-1 by t2 is c (score 1.0):
        # hand-evaluated rankings from the fixture's relevance values
        pool, signals = tiny
        subset = Subset.full(pool)
        out = apply_mona_union(subset, signals, 0.25)
        assert sorted(out.ids()) == ["b", "c"]


def _pool_with_activations(tmp_path, sparse_rows):
    """A pool of one sample per ``sparse`` activation row, with its signals."""
    ids = [f"s{i}" for i in range(len(sparse_rows))]
    rows = [{"id": i, "instruction": "q", "response": "r", "source": "s"} for i in ids]
    sigs = [
        {"id": sid, "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": sparse}
        for sid, sparse in zip(ids, sparse_rows)
    ]
    targets = {"sae_dim": 8, "benchmarks": {"t": [[0, 1.0]]}}
    write_jsonl(tmp_path / "p.jsonl", rows)
    write_jsonl(tmp_path / "s.jsonl", sigs)
    (tmp_path / "t.json").write_text(json.dumps(targets))
    pool = load_pool(str(tmp_path / "p.jsonl"))
    signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
    return pool, signals


class TestSemDedup:
    def test_identical_vectors_drop_second(self, tmp_path):
        rows = [
            {"id": i, "instruction": "q", "response": "r", "source": "s"}
            for i in ("a", "b")
        ]
        sigs = [
            {"id": "a", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": [[0, 1.0]]},
            {"id": "b", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": [[0, 2.0]]},
        ]
        targets = {"sae_dim": 4, "benchmarks": {"t": [[0, 1.0]]}}
        write_jsonl(tmp_path / "p.jsonl", rows)
        write_jsonl(tmp_path / "s.jsonl", sigs)
        (tmp_path / "t.json").write_text(json.dumps(targets))
        pool = load_pool(str(tmp_path / "p.jsonl"))
        signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
        out = apply_semdedup(Subset.full(pool), signals, n_clusters=1, tau=0.99, seed=0)
        assert out.ids() == ["a"]  # same direction, cos = 1 >= tau

    def test_orthogonal_identity(self, tmp_path):
        pool, signals = _pool_with_activations(tmp_path, [[[j, 1.0]] for j in range(4)])
        subset = Subset.full(pool)
        out = apply_semdedup(subset, signals, n_clusters=2, tau=0.5, seed=3)
        # brute force: all pairwise cosines are 0 < tau, nothing may drop
        assert out.ids() == subset.ids()

    def test_distinct_directions_tau_one_identity(self, tiny):
        pool, signals = tiny
        subset = Subset.full(pool)
        out = apply_semdedup(subset, signals, n_clusters=1, tau=1.0, seed=0)
        assert out.ids() == subset.ids()

    def test_tau_bounds(self, tiny):
        pool, signals = tiny
        with pytest.raises(OperatorError, match="tau out of"):
            apply_semdedup(Subset.full(pool), signals, 1, 1.5, 0)

    def test_cluster_count_bound(self, tiny):
        pool, signals = tiny
        with pytest.raises(OperatorError, match="exceeds subset size"):
            apply_semdedup(Subset.full(pool), signals, 5, 0.5, 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cluster_count_below_one_rejected(self, tiny, k):
        pool, signals = tiny
        with pytest.raises(OperatorError, match="n_clusters must be >= 1"):
            apply_semdedup(Subset.full(pool), signals, k, 0.9, 0)
        x = sp.csr_matrix(signals.activations)
        with pytest.raises(OperatorError, match="n_clusters must be >= 1"):
            minibatch_kmeans(x, k, 0)

    def test_zero_norm_vector_rejected(self, tmp_path):
        rows = [{"id": "a", "instruction": "q", "response": "r", "source": "s"},
                {"id": "b", "instruction": "q", "response": "r", "source": "s"}]
        sigs = [
            {"id": "a", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": [[0, 1.0]]},
            {"id": "b", "ifd": 1.0, "varentropy": 1.0, "ao": 1.0, "sparse": []},
        ]
        targets = {"sae_dim": 4, "benchmarks": {"t": [[0, 1.0]]}}
        write_jsonl(tmp_path / "p.jsonl", rows)
        write_jsonl(tmp_path / "s.jsonl", sigs)
        (tmp_path / "t.json").write_text(json.dumps(targets))
        pool = load_pool(str(tmp_path / "p.jsonl"))
        signals = load_signals(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"), pool)
        with pytest.raises(OperatorError, match="zero-norm"):
            apply_semdedup(Subset.full(pool), signals, 1, 0.9, 0)

    def test_within_cluster_property_brute_force(self, synth):
        pool, signals = synth
        subset = Subset(np.arange(48), pool)
        tau, seed, k = 0.9, 7, 4
        out = apply_semdedup(subset, signals, n_clusters=k, tau=tau, seed=seed)
        # reproduce the clustering, then brute-force pairwise cosines
        x = signals.activations[subset.positions]
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        xn = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
        labels = minibatch_kmeans(xn, k, seed)
        pos_to_row = {p: i for i, p in enumerate(subset.positions)}
        kept_rows = [pos_to_row[p] for p in out.positions]
        dense = xn.toarray()
        for i in kept_rows:
            for j in kept_rows:
                if i < j and labels[i] == labels[j]:
                    assert float(dense[i] @ dense[j]) < tau

    def test_greedy_pass_idempotent(self, synth):
        pool, signals = synth
        subset = Subset(np.arange(40), pool)
        x = signals.activations[subset.positions]
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        xn = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
        labels = minibatch_kmeans(xn, 3, 11)
        first = semdedup_greedy_pass(xn, labels, tau=0.92)
        survivors = np.flatnonzero(first)
        second = semdedup_greedy_pass(xn[survivors], labels[survivors], tau=0.92)
        assert second.all()  # re-running with the same clustering removes nothing

    def test_determinism(self, synth):
        pool, signals = synth
        subset = Subset(np.arange(60), pool)
        a = apply_semdedup(subset, signals, 4, 0.85, seed=21)
        b = apply_semdedup(subset, signals, 4, 0.85, seed=21)
        assert a.ids() == b.ids()

    # Fewer distinct directions than clusters: k-means++ runs out of distance
    # and draws a center uniformly, and the clusters left empty go to the
    # repair pass. case -> (activation rows, n_clusters)
    FEW_DIRECTIONS = {
        "one_direction": ([[[0, scale]] for scale in (1.0, 2.0, 0.5, 3.0, 1.0, 4.0)], 3),
        "one_direction_a_cluster_per_row": ([[[2, 1.0], [5, 2.0]]] * 5, 5),
        "two_directions": ([[[0, 1.0]], [[1, 2.0]]] * 4, 5),
        "three_directions": ([[[0, 1.0]], [[1, 1.0]], [[0, 1.0], [1, 1.0]]] * 3, 7),
    }

    @pytest.mark.parametrize("case", sorted(FEW_DIRECTIONS))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fewer_directions_than_clusters(self, tmp_path, case, seed):
        sparse_rows, k = self.FEW_DIRECTIONS[case]
        pool, signals = _pool_with_activations(tmp_path, sparse_rows)
        x = signals.activations
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        xn = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
        labels = minibatch_kmeans(xn, k, seed)
        assert labels.shape == (len(pool),)
        assert ((labels >= 0) & (labels < k)).all()
        assert np.array_equal(labels, minibatch_kmeans(xn, k, seed))
        out = apply_semdedup(Subset.full(pool), signals, k, 0.9, seed)
        assert np.array_equal(out.positions, np.flatnonzero(per_row_greedy_pass(xn, labels, 0.9)))


def reference_kmeans_plusplus(x, n_clusters, rng):
    """k-means++ seeding that takes each center with ``x[i].toarray()``."""
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = x[first].toarray().ravel()
    d2 = np.maximum(1.0 + (centers[0] ** 2).sum() - 2.0 * (x @ centers[0]), 0.0)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = x[pick].toarray().ravel()
        dj = np.maximum(1.0 + (centers[j] ** 2).sum() - 2.0 * (x @ centers[j]), 0.0)
        d2 = np.minimum(d2, dj)
    return centers


def reference_assign(x, centers):
    """Nearest centers from one dense product of all rows."""
    sims = x @ centers.T
    d2 = 1.0 + (centers**2).sum(axis=1)[None, :] - 2.0 * sims
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(x.shape[0]), labels]


def reference_minibatch_kmeans(x, n_clusters, seed, repairs=None):
    """Reference: a fancy-indexed batch and a sparse indicator product per
    minibatch, and whole-matrix assignments. ``repairs``, when a list,
    collects each cluster the repair pass re-seeds."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    batch = min(KMEANS_BATCH_SIZE, n)
    centers = reference_kmeans_plusplus(x, n_clusters, rng)
    counts = np.zeros(n_clusters, dtype=np.int64)
    for _ in range(KMEANS_EPOCHS):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            m = x[order[start:start + batch]]
            labels, _ = reference_assign(m, centers)
            present, sizes = np.unique(labels, return_counts=True)
            indicator = sp.csr_matrix(
                (np.repeat(1.0 / sizes, sizes), np.argsort(labels, kind="stable"),
                 np.concatenate(([0], np.cumsum(sizes)))),
                shape=(present.size, m.shape[0]),
            )
            means = (indicator @ m).toarray()
            counts[present] += sizes
            eta = (sizes / counts[present])[:, None]
            centers[present] = (1.0 - eta) * centers[present] + eta * means
    labels, d2 = reference_assign(x, centers)
    for _ in range(n_clusters):
        present = np.bincount(labels, minlength=n_clusters) > 0
        if present.all():
            break
        empty = int(np.flatnonzero(~present)[0])
        if repairs is not None:
            repairs.append(empty)
        centers[empty] = x[int(np.argmax(d2))].toarray().ravel()
        labels, d2 = reference_assign(x, centers)
    return labels


def per_row_greedy_pass(x_normalized, labels, tau):
    """Reference: one sparse product per row against the rows kept so far."""
    keep_mask = np.zeros(x_normalized.shape[0], dtype=bool)
    for c in np.unique(labels):
        kept: list[int] = []
        for i in np.flatnonzero(labels == c):
            if kept:
                sims = (x_normalized[kept] @ x_normalized[i].T).toarray().ravel()
                if sims.size and sims.max() >= tau:
                    continue
            kept.append(int(i))
        keep_mask[kept] = True
    return keep_mask


def unit_rows(seed: int, n: int, dim: int, n_bases: int) -> sp.csr_matrix:
    """``n`` sparse rows drawn from ``n_bases`` directions at scale 1, 0.5 or
    3, L2-normalized the way apply_semdedup does."""
    rng = np.random.default_rng(seed)
    bases = np.round(rng.random((n_bases, dim)), 2) * (rng.random((n_bases, dim)) < 0.4)
    bases[np.arange(n_bases), rng.integers(dim, size=n_bases)] = 1.0
    dense = bases[rng.integers(n_bases, size=n)] * rng.choice([1.0, 0.5, 3.0], size=n)[:, None]
    x = sp.csr_matrix(dense)
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    return sp.csr_matrix(x.multiply(1.0 / norms[:, None]))


class TestKMeansProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3 * KMEANS_BATCH_SIZE),
        dim=st.integers(1, 12),
        base_share=st.floats(0.0, 1.0),
        n_clusters=st.integers(1, 40),
    )
    # a one-row last batch
    @example(seed=4, n=KMEANS_BATCH_SIZE + 1, dim=8, base_share=0.5, n_clusters=6)
    # four batches per epoch
    @example(seed=5, n=3 * KMEANS_BATCH_SIZE + 100, dim=12, base_share=0.3, n_clusters=9)
    # one direction for five clusters: the repair pass re-seeds centers
    # (test_repair_example_reseeds checks that it does)
    @example(seed=6, n=40, dim=6, base_share=0.0, n_clusters=5)
    def test_matches_reference(self, seed, n, dim, base_share, n_clusters):
        x = unit_rows(seed, n, dim, max(1, round(base_share * n)))
        k = min(n_clusters, n)
        labels = minibatch_kmeans(x, k, seed)
        assert labels.shape == (n,)
        assert np.array_equal(labels, reference_minibatch_kmeans(x, k, seed))

    def test_repair_example_reseeds(self):
        repairs = []
        reference_minibatch_kmeans(unit_rows(6, 40, 6, 1), 5, 6, repairs)
        assert repairs


class TestGreedyPassProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3 * SEMDEDUP_BLOCK_ROWS),
        dim=st.integers(1, 12),
        base_share=st.floats(0.01, 1.0),
        clusters=st.sampled_from(["one", "few", "singletons"]),
        tau=st.sampled_from([1.0, 0.999, 0.9, 0.5]) | st.floats(0.05, 1.0),
    )
    # exact duplicates at tau = 1.0
    @example(seed=1, n=60, dim=4, base_share=0.1, clusters="few", tau=1.0)
    # every cluster holds one row
    @example(seed=2, n=50, dim=6, base_share=0.2, clusters="singletons", tau=0.5)
    # one cluster crosses two block boundaries
    @example(seed=3, n=2 * SEMDEDUP_BLOCK_ROWS + 17, dim=8, base_share=0.3,
             clusters="one", tau=0.9)
    def test_matches_per_row_reference(self, seed, n, dim, base_share, clusters, tau):
        x = unit_rows(seed, n, dim, max(1, round(base_share * n)))
        n_clusters = {"one": 1, "few": min(n, 3), "singletons": n}[clusters]
        labels = np.random.default_rng(seed + 1).permutation(np.arange(n) % n_clusters)
        mask = semdedup_greedy_pass(x, labels, tau)
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask, per_row_greedy_pass(x, labels, tau))
        assert np.array_equal(mask, semdedup_greedy_pass(x, labels, tau))
        if clusters == "singletons":
            assert mask.all()

    @pytest.mark.parametrize("block_rows", [SEMDEDUP_BLOCK_ROWS, 5])
    def test_near_duplicate_chain_alternates(self, monkeypatch, block_rows):
        """Row i holds features i and i + 1 at equal weight, so it reaches a
        cosine of 1/2 with each neighbour and 0 with every other row. Row 1
        drops against row 0; row 2 stays, as its one close row was dropped;
        and so on. A pass that also compared against dropped rows would keep
        row 0 alone."""
        monkeypatch.setattr(operators, "SEMDEDUP_BLOCK_ROWS", block_rows)
        n = 2 * SEMDEDUP_BLOCK_ROWS + 17
        x = sp.csr_matrix(
            (np.full(2 * n, np.sqrt(0.5)), (np.arange(n)[:, None] + [0, 1]).ravel(),
             np.arange(0, 2 * n + 1, 2)),
            shape=(n, n + 1),
        )
        labels = np.zeros(n, dtype=np.int64)
        mask = semdedup_greedy_pass(x, labels, 0.45)
        assert np.array_equal(mask, np.arange(n) % 2 == 0)
        assert np.array_equal(mask, per_row_greedy_pass(x, labels, 0.45))

    def test_a_cluster_per_row_at_sae_dim_4096(self):
        """n_clusters = n on 3000 rows of 2-6 features out of 4096, every
        7th a copy of the row above: nothing drops, and the block columns
        number only the (cluster, feature) pairs that occur. Numbering all
        n x 4096 of them would take about 150 MB."""
        rng = np.random.default_rng(11)
        n, dim = 3000, 4096
        counts = rng.integers(2, 7, size=n)
        rows = [np.sort(rng.choice(dim, c, replace=False)) for c in counts]
        for i in range(6, n, 7):
            rows[i] = rows[i - 1]
        indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        x = sp.csr_matrix((rng.uniform(0.1, 2.0, indptr[-1]), np.concatenate(rows), indptr),
                          shape=(n, dim))
        x = sp.csr_matrix(x.multiply(1.0 / np.sqrt(x.multiply(x).sum(axis=1))))
        labels = rng.permutation(n)
        tracemalloc.start()
        try:
            mask = semdedup_greedy_pass(x, labels, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.all()
        assert peak < 8_000_000
        assert not semdedup_greedy_pass(x, np.zeros(n, dtype=np.int64), 0.5).all()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sets(st.integers(0, 199), min_size=1, max_size=200),
        k=st.integers(1, 8),
        tau=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_apply_output_is_repeatable_subset(self, synth, rows, k, tau, seed):
        pool, signals = synth
        subset = Subset(np.array(sorted(rows)), pool)
        k = min(k, len(subset))
        out = apply_semdedup(subset, signals, k, tau, seed)
        assert set(out.positions) <= set(subset.positions)
        assert np.array_equal(out.positions, apply_semdedup(subset, signals, k, tau, seed).positions)


class TestRandomK:
    def test_identity_when_k_large(self, tiny):
        pool, _ = tiny
        subset = Subset.full(pool)
        assert apply_random_k(subset, 10, seed=0).ids() == subset.ids()

    def test_determinism_per_seed(self, synth):
        pool, _ = synth
        subset = Subset.full(pool)
        first = apply_random_k(subset, 50, seed=42)
        again = apply_random_k(subset, 50, seed=42)
        assert first.ids() == again.ids()
        assert len(first) == 50

    def test_seeds_differ(self, synth):
        pool, _ = synth
        subset = Subset(np.arange(100), pool)
        s42 = apply_random_k(subset, 50, seed=42)
        s256 = apply_random_k(subset, 50, seed=256)
        assert s42.ids() != s256.ids()
        # regression snapshot: both draws are pure functions of their seed
        assert apply_random_k(subset, 50, seed=42).ids() == s42.ids()
        assert apply_random_k(subset, 50, seed=256).ids() == s256.ids()

    def test_output_in_pool_order(self, synth):
        pool, _ = synth
        out = apply_random_k(Subset.full(pool), 20, seed=9)
        assert list(out.positions) == sorted(out.positions)


class TestMix:
    def test_self_union_identity(self, tiny):
        pool, _ = tiny
        s = subset_from_ids(["a", "c"], pool)
        assert apply_mix(s, s).ids() == s.ids()

    def test_disjoint_union(self, synth):
        pool, _ = synth
        s1 = Subset(np.arange(3), pool)
        s2 = Subset(np.arange(3, 7), pool)
        assert len(apply_mix(s1, s2)) == 7

    def test_overlap_dedup(self, tiny):
        pool, _ = tiny
        s1 = subset_from_ids(["a", "b"], pool)
        s2 = subset_from_ids(["b", "c"], pool)
        assert apply_mix(s1, s2).ids() == ["a", "b", "c"]

    def test_cross_pool_rejected(self, tiny, synth):
        pool1, _ = tiny
        pool2, _ = synth
        with pytest.raises(OperatorError, match="different pools"):
            apply_mix(Subset.full(pool1), Subset.full(pool2))


class TestSignalsOfAnotherPool:
    @pytest.mark.parametrize("spec", [
        OperatorSpec("ifd_topfrac", {"fraction": 0.5}),
        OperatorSpec("ao_topfrac", {"fraction": 0.5}),
        OperatorSpec("random_k", {"k": 10, "seed": 0}),
        OperatorSpec("mix", {"source": "incumbent"}),
    ], ids=lambda spec: spec.operator)
    def test_apply_step_refuses_them(self, pools_a_b, spec):
        (_, signals_a), (pool_b, _) = pools_a_b
        with pytest.raises(OperatorError, match="signals of another pool"):
            apply_step(spec, Subset.full(pool_b), signals_a, lambda ref: Subset.full(pool_b))

    def test_relevance_union_refuses_them(self, pools_a_b):
        (_, signals_a), (pool_b, _) = pools_a_b
        with pytest.raises(OperatorError, match="signals of another pool"):
            apply_mona_union(Subset.full(pool_b), signals_a, 0.5)

    def test_semdedup_refuses_them(self, pools_a_b):
        (_, signals_a), (pool_b, _) = pools_a_b
        with pytest.raises(OperatorError, match="signals of another pool"):
            apply_semdedup(Subset.full(pool_b), signals_a, n_clusters=4, tau=0.9, seed=0)


class TestMixProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        left=st.sets(st.integers(0, 199), min_size=1, max_size=200),
        drawn=st.sets(st.integers(0, 199), min_size=1, max_size=200),
        relation=st.sampled_from(["drawn", "identical", "nested", "disjoint"]),
    )
    @example(left={7}, drawn={7}, relation="drawn")  # single samples, identical
    @example(left={0}, drawn={199}, relation="drawn")  # single samples, disjoint
    @example(left={5}, drawn={0}, relation="disjoint")  # one sample against the rest
    def test_matches_union1d(self, synth, left, drawn, relation):
        pool, _ = synth
        right = {
            "drawn": drawn,
            "identical": left,
            "nested": set(sorted(left)[: len(left) // 2 + 1]),
            "disjoint": set(range(200)) - left or drawn,  # nothing is disjoint from the pool
        }[relation]
        a, b = Subset(np.array(sorted(left)), pool), Subset(np.array(sorted(right)), pool)
        out = apply_mix(a, b)
        assert out.positions.dtype == np.int64
        assert (np.diff(out.positions) > 0).all()
        assert np.array_equal(out.positions, np.union1d(a.positions, b.positions))
        assert np.array_equal(apply_mix(b, a).positions, out.positions)


# Parameter values a caller might hand validation: JSON values near each
# kind's range, any other value, and numpy scalars a library caller computes with.
KIND_VALUES = {
    "fraction": st.floats(0.0, 1.5),
    "int": st.integers(-5, 300),
    "seed": st.integers(-5, 2**40),
    "source": st.sampled_from(["incumbent", "eval:1", "eval:x"]),
}
OTHER_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(["0.5", "7"]),
    st.integers(1, 300).map(np.int64), st.floats(0.01, 1.0).map(np.float64),
    st.floats(0.0, 1.0, width=32).map(np.float32), st.booleans().map(np.bool_),
)


class TestClosureAndDispatch:
    def test_all_operators_closed_over_input(self, synth):
        pool, signals = synth
        catalog = default_catalog(len(pool))
        subset = Subset(np.arange(80), pool)
        input_ids = set(subset.ids())
        specs = [
            OperatorSpec("ifd_topfrac", {"fraction": 0.4}),
            OperatorSpec("varentropy_topfrac", {"fraction": 0.4}),
            OperatorSpec("ngram_topfrac", {"fraction": 0.4}),
            OperatorSpec("ao_topfrac", {"fraction": 0.4}),
            OperatorSpec("mona_filter", {"fraction": 0.2}),
            OperatorSpec("semdedup", {"n_clusters": 3, "tau": 0.8, "seed": 1}),
            OperatorSpec("random_k", {"k": 30, "seed": 5}),
        ]
        for spec in specs:
            assert not validate_spec(spec, catalog)
            out = apply_step(spec, subset, signals)
            assert set(out.ids()) <= input_ids
            again = apply_step(spec, subset, signals)
            assert out.ids() == again.ids()  # purity

    def test_mix_requires_resolver(self, tiny):
        pool, signals = tiny
        spec = OperatorSpec("mix", {"source": "incumbent"})
        with pytest.raises(OperatorError, match="unresolvable mix source"):
            apply_step(spec, Subset.full(pool), signals)

    def test_validate_spec_messages(self, tiny):
        pool, _ = tiny
        catalog = default_catalog(len(pool))
        assert validate_spec(OperatorSpec("quality_llm", {}), catalog) == [
            "unknown operator 'quality_llm'"
        ]
        problems = validate_spec(OperatorSpec("ifd_topfrac", {"fraction": 1.5}), catalog)
        assert problems == ["ifd_topfrac: fraction out of (0,1]"]
        problems = validate_spec(OperatorSpec("mix", {"source": "eval:x"}), catalog)
        assert any("source" in p for p in problems)
        # a source step is ASCII digits: "²" once broke int(), "١" once meant step 1
        for source in ("eval:²", "eval:١", "eval:0", "eval:000", "eval: 1"):
            assert validate_spec(OperatorSpec("mix", {"source": source}), catalog) == [
                f"mix: source must be 'incumbent' or 'eval:<t>', got {source!r}"
            ]
        for source in ("eval:1", "eval:007", "eval:" + "9" * 5000):
            assert not validate_spec(OperatorSpec("mix", {"source": source}), catalog)
        problems = validate_spec(
            OperatorSpec("random_k", {"k": 5, "seed": -1}), catalog
        )
        assert problems == ["random_k: seed must be nonnegative"]
        # integer params take a JSON integer or an integral float, nothing else
        assert not validate_spec(OperatorSpec("random_k", {"k": 5.0, "seed": 0}), catalog)
        for bad in ("5.0", "abc", True, 2.5, np.int64(5), np.bool_(True)):
            problems = validate_spec(
                OperatorSpec("random_k", {"k": bad, "seed": bad}), catalog
            )
            assert problems == [
                "random_k: k must be an integer", "random_k: seed must be an integer",
            ]
        # fraction params take a JSON number, as ingestion does: no string, no bool
        assert not validate_spec(OperatorSpec("ifd_topfrac", {"fraction": 1}), catalog)
        # a numpy scalar is not a JSON number: a ledger could not write it
        for bad in ("0.5", True, None, [0.5], np.float32(0.5), np.float64(0.5)):
            problems = validate_spec(OperatorSpec("ifd_topfrac", {"fraction": bad}), catalog)
            assert problems == ["ifd_topfrac: fraction must be a number"]
        problems = validate_spec(
            OperatorSpec("semdedup", {"n_clusters": 2, "tau": "0.9", "seed": 0}), catalog
        )
        assert problems == ["semdedup: tau must be a number"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_accepted_spec_is_written_and_read_back(self, data):
        catalog = default_catalog(200)
        entry = data.draw(st.sampled_from(catalog.entries))
        spec = OperatorSpec(entry.name, {
            key: data.draw(KIND_VALUES[ps.kind] if data.draw(st.booleans()) else OTHER_VALUES)
            for key, ps in entry.params.items()
        })
        if validate_spec(spec, catalog):
            return
        recipe = Recipe((spec,))
        assert recipe_from_obj(json.loads(json.dumps(recipe_to_obj(recipe))), catalog) == recipe

    def test_catalog_json_is_publishable(self, tiny):
        pool, _ = tiny
        catalog = default_catalog(len(pool))
        doc = json.loads(catalog.to_json())
        names = [op["name"] for op in doc["operators"]]
        assert "semdedup" in names and "mix" in names
        assert doc["pool_size"] == len(pool)
        assert catalog.digest() == catalog.digest()

    @pytest.mark.parametrize("pool_size", [1, 2, 31, 200, 50_000])
    def test_sampled_and_retuned_values_pass_validation_within_published_bounds(
        self, pool_size,
    ):
        catalog = default_catalog(pool_size)
        published = {op["name"]: op["params"] for op in json.loads(catalog.to_json())["operators"]}
        rng = np.random.default_rng(pool_size)

        def check(entry, params):
            assert not validate_spec(OperatorSpec(entry.name, params), catalog), params
            for key, value in params.items():
                bounds = published[entry.name][key]
                if bounds["min"] is not None:
                    assert value >= bounds["min"], (entry.name, key, value)
                if bounds["max"] is not None:
                    assert value <= bounds["max"], (entry.name, key, value)

        for entry in catalog.entries:
            for _ in range(100):
                params = entry.sample(rng)
                check(entry, params)
                if entry.primary is not None:
                    spec = entry.params[entry.primary]
                    for _ in range(5):  # a walk of retunes reaches the clipped ends
                        params[entry.primary] = spec.retune(params[entry.primary], rng)
                        check(entry, params)
