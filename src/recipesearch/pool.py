"""Pool ingestion: canonicalized samples plus cached per-sample signals.

The raw pool is a JSONL file of instruction/response records. Loading
canonicalizes it into an immutable, order-stable pool with whitespace token
counts. Cached model-side signals (IFD, varentropy, AO, sparse activation
vectors) and benchmark target vectors are ingested from separate files and
validated against the pool; unigram entropy is the one signal computed
natively here. Everything is frozen after load, so any number of workers may
read a pool and its signal table concurrently.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp


class PoolError(ValueError):
    """Raised when a pool or signals file fails validation."""


@dataclass(frozen=True)
class Sample:
    """One canonicalized instruction-response record."""

    id: str
    instruction: str
    response: str
    source: str
    token_count: int


@dataclass(frozen=True)
class CanonicalPool:
    """Immutable pool with stable ids and load-order positions.

    ``id_rank``, ``id_bytes`` and ``id_lengths`` are the tables behind
    ``Subset.content_hash``: the rank of each id in code-point order, the
    UTF-8 ids in that order with a ``\\x00`` after each, and the length of
    each id's entry in the buffer, terminator included.
    """

    samples: tuple[Sample, ...]
    index: dict[str, int]
    total_tokens: int
    token_counts: np.ndarray = field(repr=False)  # int64, aligned to samples
    id_rank: np.ndarray = field(repr=False)       # int64, aligned to samples
    id_bytes: np.ndarray = field(repr=False)      # uint8, ids in rank order
    id_lengths: np.ndarray = field(repr=False)    # int64, in rank order

    def __len__(self) -> int:
        return len(self.samples)

    def content_digest(self) -> str:
        """Digest over canonical sample content, stable across loads."""
        h = hashlib.sha256()
        for s in self.samples:
            h.update(json.dumps([s.id, s.instruction, s.response, s.source]).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class SignalTable:
    """Per-sample cached signals aligned to pool order, plus pool-level stats.

    Scalar columns are float64 arrays of length ``len(pool)``. ``activations``
    is a CSR matrix of nonnegative sparse activations with explicit zeros
    dropped, so stored entries are exactly the active features. Pool-level
    reference statistics (pool SNAR, pool signal means, the full
    sample-by-benchmark relevance matrix) are computed once here because the
    pool is fixed for the lifetime of a search.
    """

    sae_dim: int
    ifd: np.ndarray
    varentropy: np.ndarray
    ao: np.ndarray
    ngram_entropy: np.ndarray
    activations: sp.csr_matrix
    benchmarks: tuple[str, ...]
    targets: dict[str, np.ndarray]       # benchmark -> dense (sae_dim,) vector
    relevance: np.ndarray                # (n, n_benchmarks) weighted-Jaccard scores
    has_activations: np.ndarray          # bool mask: sample has >=1 active feature
    pool_snar: np.ndarray                # per-feature activation rate of the pool
    pool_mean_ifd: float
    pool_mean_varentropy: float

    _COLUMNS = ("ifd", "varentropy", "ao", "ngram_entropy")

    def column(self, name: str) -> np.ndarray:
        """Scalar signal column by name (the selector operators' scores)."""
        if name not in self._COLUMNS:
            raise KeyError(f"unknown signal column {name!r}")
        return getattr(self, name)


def normalized_tokens(text: str) -> list[str]:
    """Lowercased whitespace tokens; punctuation is kept attached."""
    return text.lower().split()


def compute_ngram_entropy(sample: Sample) -> float:
    """Shannon entropy in bits of the unigram distribution of a sample.

    Tokens come from the lowercased, whitespace-split concatenation of
    instruction and response. An empty token stream yields 0.0 so degenerate
    samples survive ingestion and can be removed by selectors instead.
    """
    tokens = normalized_tokens(sample.instruction) + normalized_tokens(sample.response)
    if not tokens:
        return 0.0
    counts = np.array(list(Counter(tokens).values()), dtype=np.float64)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _token_count(instruction: str, response: str) -> int:
    return len(instruction.split()) + len(response.split())


def load_pool(path: str) -> CanonicalPool:
    """Load and canonicalize a pool JSONL file.

    Records require ``id``, ``instruction``, ``response`` and ``source``
    fields. Load order is preserved and the same file always yields an
    identical pool. Any malformed line aborts with a diagnostic naming it.
    """
    samples: list[Sample] = []
    index: dict[str, int] = {}
    required = ("id", "instruction", "response", "source")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise PoolError(f"invalid JSON at line {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise PoolError(f"expected a JSON object at line {lineno}")
            for key in required:
                if key not in rec:
                    raise PoolError(f"missing required field {key!r} at line {lineno}")
            sid = str(rec["id"])
            if not sid:
                raise PoolError(f"empty id at line {lineno}")
            if sid in index:
                raise PoolError(f"duplicate id {sid} at line {lineno}")
            try:
                sid.encode()
            except UnicodeEncodeError as exc:
                raise PoolError(f"id is not encodable as UTF-8 at line {lineno}") from exc
            sample = Sample(
                id=sid,
                instruction=str(rec["instruction"]),
                response=str(rec["response"]),
                source=str(rec["source"]),
                token_count=_token_count(str(rec["instruction"]), str(rec["response"])),
            )
            index[sid] = len(samples)
            samples.append(sample)
    if not samples:
        raise PoolError(f"empty pool file: {path}")
    token_counts = np.array([s.token_count for s in samples], dtype=np.int64)
    by_id = sorted(index)
    id_rank = np.empty(len(samples), dtype=np.int64)
    id_rank[[index[sid] for sid in by_id]] = np.arange(len(samples))
    id_bytes = np.frombuffer(("\x00".join(by_id) + "\x00").encode(), dtype=np.uint8)
    id_lengths = np.fromiter((len(sid.encode()) + 1 for sid in by_id), dtype=np.int64,
                             count=len(by_id))
    for arr in (token_counts, id_rank, id_lengths):
        arr.setflags(write=False)
    return CanonicalPool(
        samples=tuple(samples),
        index=index,
        total_tokens=int(token_counts.sum()),
        token_counts=token_counts,
        id_rank=id_rank,
        id_bytes=id_bytes,
        id_lengths=id_lengths,
    )


def _parse_sparse_pairs(pairs, sae_dim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate and sort (index, value) pairs; zero values are dropped."""
    idx: list[int] = []
    val: list[float] = []
    for pair in pairs:
        if len(pair) != 2:
            raise PoolError(f"{what}: sparse entry must be [index, value], got {pair!r}")
        i, v = int(pair[0]), float(pair[1])
        if i < 0 or i >= sae_dim:
            raise PoolError(f"{what}: feature index out of range ({i} >= sae_dim {sae_dim})")
        if v < 0 or not math.isfinite(v):
            raise PoolError(f"{what}: negative or non-finite sparse value {v}")
        if v == 0.0:
            continue
        idx.append(i)
        val.append(v)
    arr = np.asarray(idx, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    arr = arr[order]
    if arr.size > 1 and (np.diff(arr) == 0).any():
        dup = int(arr[np.flatnonzero(np.diff(arr) == 0)[0]])
        raise PoolError(f"{what}: duplicate feature index {dup}")
    return arr, np.asarray(val, dtype=np.float64)[order]


def _weighted_jaccard_matrix(matrix: sp.csr_matrix, target: np.ndarray) -> np.ndarray:
    """Row-wise weighted Jaccard of a nonnegative CSR matrix against a vector.

    sum_j min(a_j, t_j) touches only the row's stored entries because both
    sides are nonnegative; sum_j max = sum(a) + sum(t) - sum(min).
    """
    clipped = matrix.copy()
    clipped.data = np.minimum(matrix.data, target[matrix.indices])
    mins = np.asarray(clipped.sum(axis=1)).ravel()
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    denom = row_sums + float(target.sum()) - mins
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    np.divide(mins, denom, out=out, where=denom > 0)
    return out


def load_signals(path: str, targets_path: str, pool: CanonicalPool) -> SignalTable:
    """Ingest cached signals and benchmark targets, validated against a pool.

    The signals JSONL must cover every pool id exactly once; the targets JSON
    supplies ``sae_dim`` and one sparse target vector per benchmark. Unigram
    entropy is filled in natively for every sample. Raises :class:`PoolError`
    on unknown ids, missing coverage, out-of-range feature indices, negative
    values, or an all-zero IFD/varentropy column (which would make the
    pool-relative ratios in the state vector undefined).
    """
    with open(targets_path, encoding="utf-8") as fh:
        try:
            tgt_doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PoolError(f"targets file {targets_path}: invalid JSON: {exc}") from exc
    if not isinstance(tgt_doc, dict):
        raise PoolError(f"targets file {targets_path}: expected a JSON object")
    sae_dim = int(tgt_doc.get("sae_dim", 0))
    if sae_dim <= 0:
        raise PoolError(f"targets file {targets_path}: sae_dim must be a positive integer")
    bench_doc = tgt_doc.get("benchmarks", {})
    if not bench_doc:
        raise PoolError(f"targets file {targets_path}: no benchmarks defined")
    targets: dict[str, np.ndarray] = {}
    for name in sorted(bench_doc):
        t_idx, t_val = _parse_sparse_pairs(bench_doc[name], sae_dim, f"target {name!r}")
        if t_idx.size == 0:
            raise PoolError(f"target {name!r} is all-zero")
        dense = np.zeros(sae_dim, dtype=np.float64)
        dense[t_idx] = t_val
        dense.setflags(write=False)
        targets[name] = dense

    n = len(pool)
    ifd = np.full(n, np.nan)
    varentropy = np.full(n, np.nan)
    ao = np.full(n, np.nan)
    rows: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0, np.int64), np.empty(0))] * n
    seen = np.zeros(n, dtype=bool)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise PoolError(f"invalid JSON at line {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise PoolError(f"expected a JSON object at line {lineno}")
            sid = str(rec.get("id", ""))
            if sid not in pool.index:
                raise PoolError(f"signals line {lineno}: id {sid!r} not in pool")
            pos = pool.index[sid]
            if seen[pos]:
                raise PoolError(f"signals line {lineno}: duplicate signals for id {sid!r}")
            seen[pos] = True
            for name, arr in (("ifd", ifd), ("varentropy", varentropy), ("ao", ao)):
                if name not in rec:
                    raise PoolError(f"signals line {lineno}: missing field {name!r}")
                value = float(rec[name])
                if value < 0 or not math.isfinite(value):
                    raise PoolError(
                        f"signals line {lineno}: negative or non-finite {name} value {value}"
                    )
                arr[pos] = value
            rows[pos] = _parse_sparse_pairs(
                rec.get("sparse", []), sae_dim, f"signals line {lineno}"
            )
    missing = int(n - seen.sum())
    if missing:
        raise PoolError(f"missing signals for {missing} sample(s)")
    if not ifd.any():
        raise PoolError("all-zero ifd column")
    if not varentropy.any():
        raise PoolError("all-zero varentropy column")

    indptr = np.zeros(n + 1, dtype=np.int64)
    for pos, (r_idx, _) in enumerate(rows):
        indptr[pos + 1] = indptr[pos] + r_idx.size
    indices = np.concatenate([r[0] for r in rows]) if n else np.empty(0, np.int64)
    data = np.concatenate([r[1] for r in rows]) if n else np.empty(0)
    activations = sp.csr_matrix((data, indices, indptr), shape=(n, sae_dim))

    ngram = np.array([compute_ngram_entropy(s) for s in pool.samples])
    benchmarks = tuple(sorted(targets))
    relevance = np.column_stack(
        [_weighted_jaccard_matrix(activations, targets[b]) for b in benchmarks]
    )
    has_act = np.diff(activations.indptr) > 0
    valid = int(has_act.sum())
    if valid:
        counts = np.bincount(activations.indices, minlength=sae_dim)
        pool_snar = counts / valid
    else:
        pool_snar = np.zeros(sae_dim)
    for arr in (ifd, varentropy, ao, ngram, relevance, has_act, pool_snar):
        arr.setflags(write=False)
    return SignalTable(
        sae_dim=sae_dim,
        ifd=ifd,
        varentropy=varentropy,
        ao=ao,
        ngram_entropy=ngram,
        activations=activations,
        benchmarks=benchmarks,
        targets=targets,
        relevance=relevance,
        has_activations=has_act,
        pool_snar=pool_snar,
        pool_mean_ifd=float(ifd.mean()),
        pool_mean_varentropy=float(varentropy.mean()),
    )
