from __future__ import annotations

import json
import math

import numpy as np
import pytest

from recipesearch.pool import (
    PoolError,
    Sample,
    compute_ngram_entropy,
    load_pool,
    load_signals,
)

from conftest import TINY_POOL_ROWS, TINY_SIGNAL_ROWS, TINY_TARGETS, write_jsonl


def make_sample(instruction, response):
    return Sample(
        id="x", instruction=instruction, response=response, source="s",
        token_count=len(instruction.split()) + len(response.split()),
    )


class TestLoadPool:
    def test_order_and_index(self, tiny):
        pool, _ = tiny
        assert [s.id for s in pool.samples] == ["a", "b", "c", "d"]
        assert pool.index == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_whitespace_token_count(self, tiny):
        pool, _ = tiny
        assert pool.samples[0].token_count == 5  # "solve x" + "x = 1"

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [TINY_POOL_ROWS[0], TINY_POOL_ROWS[0]])
        with pytest.raises(PoolError, match="duplicate id a at line 2"):
            load_pool(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        write_jsonl(path, [{"id": "a", "instruction": "hi", "source": "s"}])
        with pytest.raises(PoolError, match="missing required field 'response' at line 1"):
            load_pool(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(PoolError, match="empty pool file"):
            load_pool(str(path))

    def test_record_not_an_object_names_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        write_jsonl(path, [TINY_POOL_ROWS[0], 5])
        with pytest.raises(PoolError, match="expected a JSON object at line 2"):
            load_pool(str(path))

    def test_id_not_encodable_names_line(self, tmp_path):
        # a lone surrogate decodes from JSON but has no UTF-8 form to hash
        path = tmp_path / "surrogate.jsonl"
        write_jsonl(path, [TINY_POOL_ROWS[0], dict(TINY_POOL_ROWS[1], id="b\ud800")])
        with pytest.raises(PoolError, match="not encodable as UTF-8 at line 2"):
            load_pool(str(path))

    def test_digest_tables_follow_sorted_ids(self, tmp_path):
        ids = ["z", "\u00e9t\u00e9", "a10", "a9", "\u4e2d"]
        path = tmp_path / "ids.jsonl"
        write_jsonl(path, [dict(TINY_POOL_ROWS[0], id=i) for i in ids])
        pool = load_pool(str(path))
        ranked = [ids[p] for p in np.argsort(pool.id_rank)]
        assert ranked == sorted(ids)
        assert pool.id_bytes.tobytes() == b"".join(i.encode() + b"\x00" for i in ranked)
        assert pool.id_lengths.tolist() == [len(i.encode()) + 1 for i in ranked]
        assert not pool.id_rank.flags.writeable and not pool.id_bytes.flags.writeable

    def test_determinism(self, tiny_files):
        first = load_pool(tiny_files[0])
        second = load_pool(tiny_files[0])
        assert first.samples == second.samples
        assert first.total_tokens == second.total_tokens
        assert first.content_digest() == second.content_digest()

    def test_token_accounting_against_line_count(self, synth_files):
        pool = load_pool(synth_files[0])
        independent = 0
        with open(synth_files[0]) as fh:
            for line in fh:
                rec = json.loads(line)
                independent += len(rec["instruction"].split()) + len(rec["response"].split())
        assert pool.total_tokens == independent
        assert pool.total_tokens == int(pool.token_counts.sum())


class TestNgramEntropy:
    def test_single_symbol(self):
        assert compute_ngram_entropy(make_sample("a a", "a a")) == 0.0

    def test_uniform_two_symbols(self):
        assert compute_ngram_entropy(make_sample("a", "b")) == pytest.approx(1.0)

    def test_uniform_three_symbols(self):
        got = compute_ngram_entropy(make_sample("a a b", "b c c"))
        assert got == pytest.approx(math.log2(3), abs=1e-12)

    def test_empty_text_is_zero(self):
        assert compute_ngram_entropy(make_sample("", "")) == 0.0

    def test_lowercase_normalization(self):
        assert compute_ngram_entropy(make_sample("A a", "a A")) == 0.0

    def test_bounds_over_random_texts(self):
        rng = np.random.default_rng(5)
        vocab = ["w%d" % i for i in range(12)]
        for _ in range(50):
            words = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 30))]
            s = make_sample(" ".join(words), "")
            h = compute_ngram_entropy(s)
            distinct = len(set(words))
            assert 0.0 <= h <= math.log2(distinct) + 1e-12
            if distinct == 1:
                assert h == 0.0


class TestLoadSignals:
    def test_happy_path(self, tiny):
        pool, signals = tiny
        assert signals.sae_dim == 8
        assert signals.benchmarks == ("t1", "t2")
        assert signals.ifd[pool.index["a"]] == 0.9
        # native entropy filled for every sample
        assert signals.ngram_entropy.shape == (4,)
        assert signals.ngram_entropy[pool.index["b"]] == 0.0

    def test_missing_coverage(self, tmp_path, tiny_files):
        sig = tmp_path / "short.jsonl"
        write_jsonl(sig, TINY_SIGNAL_ROWS[:3])
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match=r"missing signals for 1 sample\(s\)"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_unknown_id(self, tmp_path, tiny_files):
        sig = tmp_path / "unknown.jsonl"
        write_jsonl(sig, TINY_SIGNAL_ROWS + [dict(TINY_SIGNAL_ROWS[0], id="zz")])
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="not in pool"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_feature_index_out_of_range(self, tmp_path, tiny_files):
        rows = [dict(r) for r in TINY_SIGNAL_ROWS]
        rows[0]["sparse"] = [[8, 1.0]]  # sae_dim is 8
        sig = tmp_path / "oob.jsonl"
        write_jsonl(sig, rows)
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="feature index out of range"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_duplicate_feature_index_rejected(self, tmp_path, tiny_files):
        rows = [dict(r) for r in TINY_SIGNAL_ROWS]
        rows[0]["sparse"] = [[2, 1.0], [2, 0.5]]
        sig = tmp_path / "dupfeat.jsonl"
        write_jsonl(sig, rows)
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="duplicate feature index 2"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_negative_value(self, tmp_path, tiny_files):
        rows = [dict(r) for r in TINY_SIGNAL_ROWS]
        rows[1]["ifd"] = -0.1
        sig = tmp_path / "neg.jsonl"
        write_jsonl(sig, rows)
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="negative or non-finite ifd"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_all_zero_ifd_rejected(self, tmp_path, tiny_files):
        rows = [dict(r, ifd=0.0) for r in TINY_SIGNAL_ROWS]
        sig = tmp_path / "zero.jsonl"
        write_jsonl(sig, rows)
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="all-zero ifd column"):
            load_signals(str(sig), tiny_files[2], pool)

    def test_signal_closure(self, tiny):
        pool, signals = tiny
        for name in ("ifd", "varentropy", "ao", "ngram_entropy"):
            col = signals.column(name)
            assert col.shape == (len(pool),)
            assert np.isfinite(col).all()
        assert signals.activations.shape == (len(pool), signals.sae_dim)

    def test_relevance_matrix_hand_values(self, tiny):
        pool, signals = tiny
        t1 = signals.benchmarks.index("t1")
        t2 = signals.benchmarks.index("t2")
        # a vs t1: min-sum 0.5, max-sum 1.5
        assert signals.relevance[pool.index["a"], t1] == pytest.approx(1 / 3, abs=1e-12)
        assert signals.relevance[pool.index["b"], t1] == pytest.approx(1.0)
        assert signals.relevance[pool.index["c"], t1] == 0.0
        assert signals.relevance[pool.index["c"], t2] == pytest.approx(1.0)

    def test_targets_must_be_nonempty(self, tmp_path, tiny_files):
        doc = dict(TINY_TARGETS, benchmarks={"t1": []})
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(doc))
        pool = load_pool(tiny_files[0])
        with pytest.raises(PoolError, match="all-zero"):
            load_signals(tiny_files[1], str(tpath), pool)
