from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recipesearch.pool import (
    PoolError,
    _first_problem,
    descending_rank,
    load_pool,
    load_signals,
)

from conftest import TINY_POOL_ROWS, TINY_SIGNAL_ROWS, TINY_TARGETS, write_jsonl


# ---------------------------------------------------------------------------
# Per-sample and per-row references
# ---------------------------------------------------------------------------

def compute_ngram_entropy(instruction: str, response: str) -> float:
    """Shannon entropy in bits of one sample's unigram distribution.

    Lowercased whitespace tokens of the instruction, then of the response;
    counts in first-occurrence order; an empty token stream gives 0.0.
    """
    tokens = instruction.lower().split() + response.lower().split()
    if not tokens:
        return 0.0
    counts = np.array(list(Counter(tokens).values()), dtype=np.float64)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def reference_csr(rows: list[list], n: int) -> tuple[list, list, list]:
    """indptr, indices and data of valid sparse rows, one row at a time:
    zero values dropped, the rest sorted by feature index."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        kept = sorted((i, float(v)) for i, v in pairs if float(v) != 0.0)
        indices += [i for i, _ in kept]
        data += [v for _, v in kept]
        indptr.append(len(indices))
    assert len(indptr) == n + 1
    return indptr, indices, data


def ingest(work: Path, pool_rows: list[dict], signal_lines: list[str], targets=TINY_TARGETS):
    """Write a pool, signals given as raw lines, and targets; load all three."""
    write_jsonl(work / "pool.jsonl", pool_rows)
    (work / "signals.jsonl").write_text("".join(line + "\n" for line in signal_lines),
                                        encoding="utf-8")
    (work / "targets.json").write_text(json.dumps(targets), encoding="utf-8")
    pool = load_pool(str(work / "pool.jsonl"))
    return pool, load_signals(str(work / "signals.jsonl"), str(work / "targets.json"), pool)


def text_pool(texts: list[tuple[str, str]]) -> list[dict]:
    return [{"id": f"s{k}", "instruction": inst, "response": resp, "source": "s"}
            for k, (inst, resp) in enumerate(texts)]


def signal_line(sid: str, sparse=None, **fields) -> str:
    rec = {"id": sid, "ifd": 0.5, "varentropy": 0.5, "ao": 1.0, **fields}
    if sparse is not None:
        rec["sparse"] = sparse
    return json.dumps(rec)


POOL_COLUMNS = ("ids", "instructions", "responses", "sources")
POOL_ARRAYS = ("token_counts", "ngram_entropy", "id_rank", "id_bytes", "id_lengths")


def reference_load_pool(path: str) -> dict:
    """The per-record pool loader that the columnar one replaced.

    ``json.loads`` on each line, one record tuple per sample, two splits of
    the original text for the token count and :func:`compute_ngram_entropy`
    for the entropy; the digest tables and the content digest are built from
    the record list. Raises :class:`PoolError` with the loader's messages.
    Returns every column and table of a pool under its attribute name, and
    ``"digest"``.
    """
    records: list[tuple[str, str, str, str]] = []
    index: dict[str, int] = {}
    required = ("id", "instruction", "response", "source")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if re.search("[\udc80-\udcff]", line):
                raise PoolError(f"pool file {path}: line {lineno} is not valid UTF-8")
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise PoolError(f"invalid JSON at line {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise PoolError(f"expected a JSON object at line {lineno}")
            for key in required:
                if key not in rec:
                    raise PoolError(f"missing required field {key!r} at line {lineno}")
            for key in required:
                if type(rec[key]) is not str:
                    raise PoolError(
                        f"field {key!r} must be a JSON string, got {rec[key]!r} at line {lineno}"
                    )
            sid = rec["id"]
            if not sid:
                raise PoolError(f"empty id at line {lineno}")
            if sid in index:
                raise PoolError(f"duplicate id {sid} at line {lineno}")
            try:
                sid.encode()
            except UnicodeEncodeError as exc:
                raise PoolError(f"id is not encodable as UTF-8 at line {lineno}") from exc
            index[sid] = len(records)
            records.append(tuple(rec[key] for key in required))
    if not records:
        raise PoolError(f"empty pool file: {path}")
    by_id = sorted(index)
    rank_of = {sid: r for r, sid in enumerate(by_id)}
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(list(record)).encode())
    token_counts = [len(inst.split()) + len(resp.split()) for _, inst, resp, _ in records]
    return {
        **dict(zip(POOL_COLUMNS, zip(*records))),
        "token_counts": np.array(token_counts, dtype=np.int64),
        "total_tokens": sum(token_counts),
        "ngram_entropy": np.array([compute_ngram_entropy(inst, resp)
                                   for _, inst, resp, _ in records]),
        "id_rank": np.array([rank_of[sid] for sid, *_ in records], dtype=np.int64),
        "id_bytes": np.frombuffer(b"".join(sid.encode() + b"\x00" for sid in by_id),
                                  dtype=np.uint8),
        "id_lengths": np.array([len(sid.encode()) + 1 for sid in by_id], dtype=np.int64),
        "digest": digest.hexdigest(),
    }


def ingested_entropy(work: Path, texts: list[tuple[str, str]]) -> np.ndarray:
    rows = text_pool(texts)
    lines = [signal_line(r["id"], [[0, 1.0]]) for r in rows]
    return ingest(work, rows, lines)[1].ngram_entropy


class TestLoadPool:
    def test_order_and_index(self, tiny):
        pool, _ = tiny
        assert pool.ids == ("a", "b", "c", "d")
        assert pool.index == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_whitespace_token_count(self, tiny):
        pool, _ = tiny
        assert pool.token_counts[0] == 5  # "solve x" + "x = 1"

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
        for name in POOL_COLUMNS:
            assert getattr(first, name) == getattr(second, name)
        for name in POOL_ARRAYS:
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first.total_tokens == second.total_tokens
        assert first.content_digest() == second.content_digest()

    def test_pools_and_tables_compare_by_identity(self, tiny_files):
        # the content identity of a pool is its digest, not ``==``
        pools = [load_pool(tiny_files[0]) for _ in range(2)]
        tables = [load_signals(tiny_files[1], tiny_files[2], pool) for pool in pools]
        for first, second in (pools, tables):
            assert first == first and first != second
            assert len({first, second, first}) == 2

    def test_token_accounting_against_line_count(self, synth_files):
        pool = load_pool(synth_files[0])
        independent = 0
        with open(synth_files[0]) as fh:
            for line in fh:
                rec = json.loads(line)
                independent += len(rec["instruction"].split()) + len(rec["response"].split())
        assert pool.total_tokens == independent
        assert pool.total_tokens == int(pool.token_counts.sum())


# Pieces of text that are easy to tokenize wrongly: Σ takes its final form
# only at the end of a word, İ lowercases to two code points, U+0345 is a
# case-ignorable combining mark, \x1c, U+0085, U+00A0, U+2028 and U+3000 are
# str.split separators that JSON does not treat as whitespace.
TEXT_PIECES = ["a", "Bc", "\u03a3", "x\u03a3", "\u0130", "\u0345", "'", "\x1c",
               "\x85", "\u00a0", "\u2028", "\u3000", " ", "\t", "\n"]
POOL_TEXT = st.lists(st.sampled_from(TEXT_PIECES), max_size=10).map("".join)
GOOD_RECORD = {"id": "a", "instruction": "q", "response": "r", "source": "s"}


class TestColumnarPool:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           ids=st.lists(POOL_TEXT.filter(bool), min_size=1, max_size=8, unique=True),
           ascii_only=st.booleans())
    @example(data=None, ids=["\u03a3", "a\u03a3", "\u0130\u0345\u03a3"], ascii_only=False)
    def test_matches_per_record_loader(self, data, ids, ascii_only):
        rows = []
        for k, sid in enumerate(ids):
            if data is None:  # a final Σ at the end of one field, another at the start
                texts = ("B\u03a3", "\u03a3b", "") if k % 2 else ("", "x\u03a3\u0345", "\u0130")
            else:
                texts = tuple(data.draw(POOL_TEXT) for _ in range(3))
            rows.append(dict(zip(("id", "instruction", "response", "source"), (sid, *texts))))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pool.jsonl"
            path.write_text("".join(json.dumps(row, ensure_ascii=ascii_only) + "\n"
                                    for row in rows), encoding="utf-8")
            pool = load_pool(str(path))
            expected = reference_load_pool(str(path))
        for name in POOL_COLUMNS:
            assert getattr(pool, name) == expected[name], name
        for name in POOL_ARRAYS:
            got = getattr(pool, name)
            assert got.dtype == expected[name].dtype, name
            assert got.tobytes() == expected[name].tobytes(), name
        assert pool.total_tokens == expected["total_tokens"]
        assert pool.content_digest() == expected["digest"]

    @pytest.mark.parametrize("line", [
        b"\xef\xbb\xbf" + json.dumps(GOOD_RECORD).encode(),  # a byte order mark
        json.dumps(GOOD_RECORD).encode() + b" {}",
        json.dumps(GOOD_RECORD).encode() + b"x",
        b'{"id": "a", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        json.dumps(dict(GOOD_RECORD, id="\ud800")).encode(),  # escaped lone surrogate
        json.dumps(dict(GOOD_RECORD, response="caf\u00e9"), ensure_ascii=False)
        .encode().replace(b"\xc3", b"\xff"),
        b'{"id": ',
        b"NaN",
        b"[1] ",
    ], ids=["bom", "second document", "trailing text", "deep nesting", "lone surrogate id",
            "not utf-8", "truncated", "nan", "array"])
    def test_rejection_is_the_per_record_loader_message(self, tmp_path, line):
        path = tmp_path / "pool.jsonl"
        path.write_bytes(json.dumps(dict(GOOD_RECORD, id="z")).encode() + b"\n" + line + b"\n")
        with pytest.raises(PoolError) as expected:
            reference_load_pool(str(path))
        with pytest.raises(PoolError) as got:
            load_pool(str(path))
        assert "line 2" in str(expected.value)
        assert str(got.value) == str(expected.value)


class TestNgramEntropy:
    def test_single_symbol(self, tmp_path):
        assert ingested_entropy(tmp_path, [("a a", "a a")])[0] == 0.0

    def test_uniform_two_symbols(self, tmp_path):
        assert ingested_entropy(tmp_path, [("a", "b")])[0] == pytest.approx(1.0)

    def test_uniform_three_symbols(self, tmp_path):
        got = ingested_entropy(tmp_path, [("a a b", "b c c")])[0]
        assert got == pytest.approx(math.log2(3), abs=1e-12)

    def test_empty_text_is_zero(self, tmp_path):
        assert ingested_entropy(tmp_path, [("", "")])[0] == 0.0

    def test_lowercase_normalization(self, tmp_path):
        assert ingested_entropy(tmp_path, [("A a", "a A")])[0] == 0.0

    def test_bounds_over_random_texts(self, tmp_path):
        rng = np.random.default_rng(5)
        vocab = ["w%d" % i for i in range(12)]
        texts = [" ".join(vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 30)))
                 for _ in range(50)]
        got = ingested_entropy(tmp_path, [(t, "") for t in texts])
        for text, h in zip(texts, got):
            distinct = len(set(text.split()))
            assert 0.0 <= h <= math.log2(distinct) + 1e-12
            if distinct == 1:
                assert h == 0.0

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.sampled_from([0, 1, 7, 8, 9, 128, 129, 300])
                          | st.integers(0, 20), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @example(sizes=[0, 1, 7, 8, 9, 128, 129, 300, 8, 129, 1, 0], seed=0)
    def test_column_matches_per_sample_reference_bit_for_bit(self, sizes, seed):
        # Each sample holds exactly ``size`` distinct lowercased tokens with
        # uneven counts; Σ and İ change form or length when lowercased.
        rng = np.random.default_rng(seed)
        prefixes = ["w", "W", "\u03a3", "\u03a3\u03a3", "\u0130", "x\u0130\u03a3"]
        texts = []
        for size in sizes:
            tokens = [f"{prefixes[k % len(prefixes)]}{k}" for k in range(size)]
            words = [t for t in tokens for _ in range(int(rng.integers(1, 4)))]
            words = [w.upper() if rng.random() < 0.3 else w for w in words]
            rng.shuffle(words)
            cut = int(rng.integers(0, len(words) + 1))
            texts.append((" ".join(words[:cut]), "\t".join(words[cut:])))
        with tempfile.TemporaryDirectory() as tmp:
            got = ingested_entropy(Path(tmp), texts)
        expected = np.array([compute_ngram_entropy(*t) for t in texts])
        assert got.tobytes() == expected.tobytes()


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
            col = getattr(signals, name)
            assert col.shape == (len(pool),)
            assert np.isfinite(col).all()
        assert signals.activations.shape == (len(pool), signals.sae_dim)

    def test_ranks_derived_from_columns(self, tiny):
        pool, signals = tiny
        for name in ("ifd", "varentropy", "ao", "ngram_entropy"):
            rank = getattr(signals, f"{name}_rank")
            assert np.array_equal(rank, descending_rank(getattr(signals, name)))
            assert not rank.flags.writeable
        assert signals.relevance_rank.shape == (len(signals.benchmarks), len(pool))
        for j in range(len(signals.benchmarks)):
            assert np.array_equal(signals.relevance_rank[j],
                                  descending_rank(signals.relevance[:, j]))
        assert not signals.relevance_rank.flags.writeable
        # a replaced column is ranked again
        flipped = dataclasses.replace(signals, ifd=signals.ifd[::-1].copy())
        assert np.array_equal(flipped.ifd_rank, descending_rank(signals.ifd[::-1]))

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


class TestFlatIngestion:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), n=st.integers(1, 10), sae_dim=st.integers(1, 40))
    def test_csr_matches_per_row_reference(self, data, n, sae_dim):
        values = (st.just(0.0) | st.just(0) | st.integers(1, 1000)
                  | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
        rows = []
        for _ in range(n):
            feats = data.draw(st.lists(st.integers(0, sae_dim - 1), unique=True, max_size=8))
            pairs = [[f, data.draw(values)] for f in feats]
            if feats:  # a zero-valued repeat of a feature is dropped, not a duplicate
                repeats = data.draw(st.lists(st.sampled_from(feats), max_size=2))
                pairs += [[f, 0.0] for f in repeats]
            rows.append(data.draw(st.permutations(pairs)))
        # an empty row alternates between "sparse": [] and no "sparse" key
        lines = [signal_line(f"s{k}", pairs if pairs or k % 2 else None)
                 for k, pairs in enumerate(rows)]
        lines = data.draw(st.permutations(lines))
        for _ in range(data.draw(st.integers(0, 3))):
            blank = data.draw(st.sampled_from(["", "  "]))
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        targets = {"sae_dim": sae_dim, "benchmarks": {"t": [[0, 1.0]]}}
        with tempfile.TemporaryDirectory() as tmp:
            _, signals = ingest(Path(tmp), text_pool([("a b", "c")] * n), lines, targets)
        indptr, indices, data_ = reference_csr(rows, n)
        acts = signals.activations
        assert acts.shape == (n, sae_dim)
        assert acts.indptr.tolist() == indptr
        assert acts.indices.tolist() == indices
        assert acts.data.dtype == np.float64 and acts.data.tolist() == data_

    # kind -> (signals line for id s{k} on a pool with sae_dim 8, message pattern)
    BAD_LINES = {
        "json": (lambda sid: '{"id": ' + json.dumps(sid) + ', "ifd": ', r"invalid JSON at line"),
        "list": (lambda sid: "[1, 2]", r"expected a JSON object at line"),
        "unknown id": (lambda sid: signal_line("zz"), r"id 'zz' not in pool"),
        "missing": (lambda sid: json.dumps({"id": sid, "varentropy": 0.5, "ao": 1.0}),
                    r"missing field 'ifd'"),
        "string signal": (lambda sid: signal_line(sid, ao="1.5"),
                          r"ao must be a JSON number, got '1.5'"),
        "negative": (lambda sid: signal_line(sid, varentropy=-1),
                     r"negative or non-finite varentropy value -1\.0"),
        "range": (lambda sid: signal_line(sid, [[1, 1.0], [8, 1.0]]),
                  r"feature index out of range \(8 >= sae_dim 8\)"),
        "float index": (lambda sid: signal_line(sid, [[3.7, 1.0]]),
                        r"feature index must be a JSON integer, got 3\.7"),
        "duplicate": (lambda sid: signal_line(sid, [[5, 1.0], [2, 1.0], [5, 0.5]]),
                      r"duplicate feature index 5"),
        "nan value": (lambda sid: signal_line(sid, [[2, float("nan")]]),
                      r"negative or non-finite sparse value nan"),
    }

    @settings(max_examples=80, deadline=None)
    @given(kinds=st.permutations(sorted(BAD_LINES)), first=st.integers(0, 3),
           gap=st.integers(1, 3))
    def test_first_bad_line_is_reported(self, kinds, first, gap):
        early, late = kinds[0], kinds[1]
        n = first + gap + 2
        lines = [signal_line(f"s{k}", [[0, 1.0]]) for k in range(n)]
        lines[first] = self.BAD_LINES[early][0](f"s{first}")
        lines[first + gap] = self.BAD_LINES[late][0](f"s{first + gap}")
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(PoolError) as info:
            ingest(Path(tmp), text_pool([("a", "b")] * n), lines)
        message = str(info.value)
        assert f"line {first + 1}" in message
        assert re.search(self.BAD_LINES[early][1], message), message

    @pytest.mark.parametrize("fields, message", [
        ({"ifd": -1.0, "varentropy": None}, "negative or non-finite ifd value -1.0"),
        ({"varentropy": None, "sparse": [[9, 1.0]]}, "missing field 'varentropy'"),
        ({"ao": float("inf"), "sparse": [[9, 1.0]]}, "negative or non-finite ao value inf"),
        ({"sparse": [[9, 1.0], [1]]}, "feature index out of range (9 >= sae_dim 8)"),
        ({"sparse": [[1], [9, 1.0]]}, "sparse entry must be [index, value], got [1]"),
        ({"sparse": [[1, 1.0], [1, 2.0], [9, 1.0]]},
         "feature index out of range (9 >= sae_dim 8)"),
        ({"sparse": [[1, -2], [1, 2.0]]}, "negative or non-finite sparse value -2.0"),
        ({"sparse": [[2 ** 70, 1.0]]},
         f"feature index out of range ({2 ** 70} >= sae_dim 8)"),
        ({"sparse": [[1, 10 ** 400]]}, "negative or non-finite sparse value inf"),
        ({"ifd": 10 ** 400}, "negative or non-finite ifd value inf"),
    ])
    def test_problems_within_one_line_in_field_order(self, tmp_path, fields, message):
        rec = {"id": "s1", "ifd": 0.5, "varentropy": 0.5, "ao": 1.0, "sparse": [], **fields}
        rec = {k: v for k, v in rec.items() if v is not None}
        lines = [signal_line("s0", [[0, 1.0]]), json.dumps(rec)]
        with pytest.raises(PoolError) as info:
            ingest(tmp_path, text_pool([("a", "b")] * 2), lines)
        assert str(info.value) == f"signals line 2: {message}"


    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_every_rejection_is_the_reference_walk_message(self, data, n):
        # One good line per pool id, in any order, with up to three lines
        # inserted: bad in any way BAD_LINES knows, not UTF-8, blank, or a
        # repeated or unknown id (s{n} is not in the pool).
        def good(i, v):
            return signal_line(i, [[v % 8, 1.0]])

        sid = st.integers(0, n).map(lambda k: f"s{k}")
        lines = [good(f"s{k}", k) for k in data.draw(st.permutations(range(n)))]
        noise = st.one_of(
            st.builds(lambda kind, i: self.BAD_LINES[kind][0](i),
                      st.sampled_from(sorted(self.BAD_LINES)), sid),
            sid.map(lambda i: good(i, 3)[:-1] + ', "x": "\udcff"}'),
            st.builds(good, sid, st.integers(0, 7)),
            st.just(""),
        )
        for line in data.draw(st.lists(noise, max_size=3)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            write_jsonl(work / "pool.jsonl", text_pool([("a", "b")] * n))
            (work / "targets.json").write_text(json.dumps(TINY_TARGETS))
            text = "".join(line + "\n" for line in lines)
            (work / "signals.jsonl").write_bytes(text.encode("utf-8", "surrogateescape"))
            pool = load_pool(str(work / "pool.jsonl"))
            problem = _first_problem(str(work / "signals.jsonl"), pool.index, 8)
            try:
                load_signals(str(work / "signals.jsonl"), str(work / "targets.json"), pool)
            except PoolError as exc:
                message = str(exc)
            else:
                message = None
        if problem is not None:
            assert message == problem
        else:
            assert message is None or message.startswith("missing signals for")

    @pytest.mark.parametrize("tail", [" {}", "x"])
    def test_line_with_trailing_data_rejected(self, tmp_path, tail):
        lines = [signal_line("s0", [[0, 1.0]]) + tail]
        with pytest.raises(PoolError, match=r"^invalid JSON at line 1: Extra data"):
            ingest(tmp_path, text_pool([("a", "b")]), lines)

    def test_bad_line_padded_with_non_json_whitespace(self, tmp_path):
        # str.strip() removes \x1f and \u2028 before decoding; json.loads would not
        lines = ["\x1f" + signal_line("s0", [[9, 1.0]]) + "\u2028"]
        with pytest.raises(PoolError, match=r"^signals line 1: feature index out of range"):
            ingest(tmp_path, text_pool([("a", "b")]), lines)


class TestStrictTypes:
    @pytest.mark.parametrize("fields, message", [
        ({"sparse": 5}, "sparse must be an array of [index, value] pairs, got 5"),
        ({"sparse": None}, "sparse must be an array of [index, value] pairs, got None"),
        ({"sparse": [[3.7, 1.0]]}, "feature index must be a JSON integer, got 3.7"),
        ({"sparse": [[True, 2]]}, "feature index must be a JSON integer, got True"),
        ({"sparse": [[1, "2"]]}, "sparse value must be a JSON number, got '2'"),
        ({"sparse": [[1, False]]}, "sparse value must be a JSON number, got False"),
        ({"sparse": ["ab"]}, "sparse entry must be [index, value], got 'ab'"),
        ({"sparse": [{"a": 1, "b": 2}]},
         "sparse entry must be [index, value], got {'a': 1, 'b': 2}"),
        ({"ifd": "0.5"}, "ifd must be a JSON number, got '0.5'"),
        ({"varentropy": True}, "varentropy must be a JSON number, got True"),
        ({"ao": [1.0]}, "ao must be a JSON number, got [1.0]"),
    ])
    def test_signal_types(self, tmp_path, fields, message):
        rec = {"id": "s0", "ifd": 0.5, "varentropy": 0.5, "ao": 1.0, "sparse": [[0, 1.0]]}
        lines = [json.dumps({**rec, **fields})]
        with pytest.raises(PoolError) as info:
            ingest(tmp_path, text_pool([("a", "b")]), lines)
        assert str(info.value) == f"signals line 1: {message}"

    @pytest.mark.parametrize("doc, message", [
        (dict(TINY_TARGETS, sae_dim="8.9"), "sae_dim must be a positive integer"),
        (dict(TINY_TARGETS, sae_dim=8.0), "sae_dim must be a positive integer"),
        (dict(TINY_TARGETS, sae_dim=True), "sae_dim must be a positive integer"),
        (dict(TINY_TARGETS, benchmarks=["t1"]), "benchmarks must be an object"),
        (dict(TINY_TARGETS, benchmarks={"t1": [[0.0, 1.0]]}),
         "target 't1': feature index must be a JSON integer, got 0.0"),
        (dict(TINY_TARGETS, benchmarks={"t1": 5}),
         "target 't1': sparse must be an array of [index, value] pairs, got 5"),
        (dict(TINY_TARGETS, benchmarks={"t1": [[1, 1.0], [1, 0.5]]}),
         "target 't1': duplicate feature index 1"),
        (dict(TINY_TARGETS, benchmarks={"t1": [[8, 1.0]]}),
         "target 't1': feature index out of range (8 >= sae_dim 8)"),
        (dict(TINY_TARGETS, sae_dim=2 ** 24 + 1), "sae_dim 16777217 exceeds 2**24 (16777216)"),
        (dict(TINY_TARGETS, sae_dim=2 ** 64), f"sae_dim {2 ** 64} exceeds 2**24"),
    ])
    def test_target_types(self, tmp_path, doc, message):
        with pytest.raises(PoolError, match=re.escape(message)):
            ingest(tmp_path, text_pool([("a", "b")]), [signal_line("s0", [[0, 1.0]])], doc)

    @pytest.mark.parametrize("which, message", [
        ("pool", "pool file {}: line 3 is not valid UTF-8"),
        ("signals", "signals file {}: line 3 is not valid UTF-8"),
        ("targets", "targets file {}: not valid UTF-8 at byte 1"),
    ])
    def test_file_not_utf8_names_file_and_line(self, tmp_path, which, message):
        # 0xff is never UTF-8; "\xc3\xa9" is, and the pass must keep it
        rows = {"pool": [dict(r, response="caf\u00e9") for r in TINY_POOL_ROWS],
                "signals": TINY_SIGNAL_ROWS}
        for name, rec in rows.items():
            text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rec)
            (tmp_path / f"{name}.jsonl").write_bytes(text.encode())
        (tmp_path / "targets.json").write_text(json.dumps(TINY_TARGETS))
        path = tmp_path / ("targets.json" if which == "targets" else f"{which}.jsonl")
        data = path.read_bytes()
        if which == "targets":
            path.write_bytes(b"{\xff" + data[1:])
        else:
            lines = data.splitlines(keepends=True)
            lines[2] = lines[2].replace(b'"', b'"\xff', 1)
            path.write_bytes(b"".join(lines))
        with pytest.raises(PoolError) as info:
            pool = load_pool(str(tmp_path / "pool.jsonl"))
            load_signals(str(tmp_path / "signals.jsonl"), str(tmp_path / "targets.json"), pool)
        assert str(info.value) == message.format(path)

    @pytest.mark.parametrize("key, value", [
        ("instruction", None), ("response", 3), ("source", ["s"]), ("id", 7),
    ])
    def test_pool_fields_are_strings(self, tmp_path, key, value):
        path = tmp_path / "pool.jsonl"
        write_jsonl(path, [TINY_POOL_ROWS[0], dict(TINY_POOL_ROWS[1], **{key: value})])
        with pytest.raises(PoolError) as info:
            load_pool(str(path))
        assert str(info.value) == (
            f"field {key!r} must be a JSON string, got {value!r} at line 2"
        )
