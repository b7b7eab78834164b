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
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np
from scipy import sparse as sp


class PoolError(ValueError):
    """Raised when a pool or signals file fails validation."""


# The widest published SAE dictionaries have 16M latents (Gao et al. 2024);
# each benchmark target is held dense, at 8 bytes per feature.
MAX_SAE_DIM = 2**24

# Files are read with errors="surrogateescape": lines split as in a strict
# UTF-8 read, and each byte that is not UTF-8 becomes one of these surrogates.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


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
        """Digest over canonical sample content, stable across loads.

        SHA-256 over the bytes of ``json.dumps([id, instruction, response,
        source])`` of each sample in pool order, formatted from the escaped
        strings.
        """
        h = hashlib.sha256()
        for s in self.samples:
            h.update(("[%s, %s, %s, %s]" % (
                encode_basestring_ascii(s.id), encode_basestring_ascii(s.instruction),
                encode_basestring_ascii(s.response), encode_basestring_ascii(s.source),
            )).encode())
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
    relevance: np.ndarray                # (n, n_benchmarks) weighted-Jaccard scores
    has_activations: np.ndarray          # bool mask: sample has >=1 active feature
    pool_snar: np.ndarray                # per-feature activation rate of the pool
    pool_mean_ifd: float
    pool_mean_varentropy: float


def _unigram_entropy(samples) -> np.ndarray:
    """Shannon entropy in bits of each sample's unigram distribution.

    Tokens are the lowercased whitespace tokens of the instruction, then of
    the response; punctuation stays attached. An empty token stream yields
    0.0 so degenerate samples survive ingestion and can be removed by
    selectors instead. Counts keep their first-occurrence order, and the
    samples with the same number of distinct tokens form one matrix whose
    contiguous rows are each reduced as a lone sample's counts would be, so
    every value is the one-sample value bit for bit.
    """
    counts = [
        list(Counter(s.instruction.lower().split() + s.response.lower().split()).values())
        for s in samples
    ]
    sizes = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
    out = np.zeros(len(counts))
    for size in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == size)
        c = np.array([counts[r] for r in rows], dtype=np.float64)
        p = c / c.sum(axis=1, keepdims=True)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def _token_count(instruction: str, response: str) -> int:
    return len(instruction.split()) + len(response.split())


def load_pool(path: str) -> CanonicalPool:
    """Load and canonicalize a pool JSONL file.

    Records require ``id``, ``instruction``, ``response`` and ``source``
    fields. Load order is preserved and the same file always yields an
    identical pool. Any malformed line, one that is not UTF-8 included,
    aborts with a diagnostic naming it.
    """
    samples: list[Sample] = []
    index: dict[str, int] = {}
    required = ("id", "instruction", "response", "source")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and _NOT_UTF8.search(line):
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
            fields = [rec[key] for key in required]
            for key, value in zip(required, fields):
                if type(value) is not str:
                    raise PoolError(
                        f"field {key!r} must be a JSON string, got {value!r} at line {lineno}"
                    )
            sid, instruction, response, source = fields
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
                instruction=instruction,
                response=response,
                source=source,
                token_count=_token_count(instruction, response),
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


# The Python types ``json.loads`` gives a JSON integer and a JSON number.
# ``bool`` subclasses ``int`` but is in neither set, so true and false fail.
_INTEGER = frozenset((int,))
_NUMBER = frozenset((int, float))

_SCALARS = ("ifd", "varentropy", "ao")


def _as_float(value) -> float:
    """A JSON number as a float; an integer too large for one is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _pairs_problem(pairs, sae_dim: int) -> str | None:
    """The first problem of one sparse vector, in the order ingestion reports it.

    Entry by entry: its shape, the JSON types of index and value, the index
    range, then the value; after the last entry, the smallest feature index
    repeated among the nonzero values.
    """
    if type(pairs) is not list:
        return f"sparse must be an array of [index, value] pairs, got {pairs!r}"
    active = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            return f"sparse entry must be [index, value], got {pair!r}"
        i, v = pair
        if type(i) not in _INTEGER:
            return f"feature index must be a JSON integer, got {i!r}"
        if type(v) not in _NUMBER:
            return f"sparse value must be a JSON number, got {v!r}"
        if i < 0 or i >= sae_dim:
            return f"feature index out of range ({i} >= sae_dim {sae_dim})"
        v = _as_float(v)
        if not 0.0 <= v < math.inf:
            return f"negative or non-finite sparse value {v}"
        if v:
            active.append(i)
    repeated = [i for i, c in Counter(active).items() if c > 1]
    return f"duplicate feature index {min(repeated)}" if repeated else None


def _record_problem(rec: dict, sae_dim: int) -> str | None:
    """The first problem of a signals record's fields, in the order ingestion reports it."""
    for name in _SCALARS:
        if name not in rec:
            return f"missing field {name!r}"
        value = rec[name]
        if type(value) not in _NUMBER:
            return f"{name} must be a JSON number, got {value!r}"
        value = _as_float(value)
        if not 0.0 <= value < math.inf:
            return f"negative or non-finite {name} value {value}"
    return _pairs_problem(rec.get("sparse", []), sae_dim)


# What appending a value of the wrong JSON shape or size to a buffer raises.
_BUFFER_ERRORS = (TypeError, ValueError, OverflowError)


def _append_pairs(pairs, indices: array, values: array) -> int:
    """Append one sparse vector's indices and values; return its entry count.

    Unless ``pairs`` is a list of [JSON integer, JSON number] pairs that fit
    the buffers, one of ``_BUFFER_ERRORS`` is raised, possibly after part of
    the vector was appended. Ranges are left to :func:`_sparse_csr`.
    """
    if type(pairs) is not list:
        raise TypeError("sparse is not a list")
    if not pairs:
        return 0
    idx, val = zip(*pairs, strict=True)
    if not (_INTEGER.issuperset(map(type, idx)) and _NUMBER.issuperset(map(type, val))):
        raise TypeError("sparse entry of the wrong JSON type")
    indices.extend(idx)
    values.extend(val)
    return len(idx)


def _sparse_csr(rows: np.ndarray, indices: np.ndarray, values: np.ndarray,
                n_rows: int, sae_dim: int):
    """Check flat (row, index, value) entries and order them as CSR parts.

    Returns whether any entry holds an index outside ``[0, sae_dim)``, a
    negative or non-finite value, or an index repeated among its row's
    nonzero values; then ``indptr``, ``indices`` and ``data`` of the nonzero
    entries ordered by (row, index).
    """
    bad = bool(((indices < 0) | (indices >= sae_dim)
                | ~((values >= 0) & (values < np.inf))).any())
    nonzero = values != 0
    rows, indices, values = rows[nonzero], indices[nonzero], values[nonzero]
    order = np.lexsort((indices, rows))
    rows, indices, values = rows[order], indices[order], values[order]
    bad |= bool(((rows[1:] == rows[:-1]) & (indices[1:] == indices[:-1])).any())
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return bad, indptr, indices, values


def _first_problem(path: str, index: dict[str, int], sae_dim: int) -> str | None:
    """The message for the first offending line of a signals file, or None.

    The reference walk behind every line message of :func:`load_signals`.
    """
    seen: set[str] = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if _NOT_UTF8.search(line):
                return f"signals file {path}: line {lineno} is not valid UTF-8"
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return f"invalid JSON at line {lineno}: {exc}"
            if type(rec) is not dict:
                return f"expected a JSON object at line {lineno}"
            sid = rec.get("id", "")
            if type(sid) is not str or sid not in index:
                return f"signals line {lineno}: id {sid!r} not in pool"
            if sid in seen:
                return f"signals line {lineno}: duplicate signals for id {sid!r}"
            seen.add(sid)
            problem = _record_problem(rec, sae_dim)
            if problem is not None:
                return f"signals line {lineno}: {problem}"
    return None


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


def _load_targets(path: str) -> tuple[int, dict[str, np.ndarray]]:
    """``sae_dim`` and the dense target vector of each benchmark."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise PoolError(f"targets file {path}: not valid UTF-8 at byte {exc.start}") from exc
        except (ValueError, RecursionError) as exc:
            raise PoolError(f"targets file {path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PoolError(f"targets file {path}: expected a JSON object")
    sae_dim = doc.get("sae_dim", 0)
    if type(sae_dim) not in _INTEGER or sae_dim <= 0:
        raise PoolError(f"targets file {path}: sae_dim must be a positive integer")
    if sae_dim > MAX_SAE_DIM:
        raise PoolError(f"targets file {path}: sae_dim {sae_dim} exceeds 2**24 ({MAX_SAE_DIM})")
    bench_doc = doc.get("benchmarks", {})
    if not bench_doc:
        raise PoolError(f"targets file {path}: no benchmarks defined")
    if type(bench_doc) is not dict:
        raise PoolError(f"targets file {path}: benchmarks must be an object of sparse vectors")
    targets: dict[str, np.ndarray] = {}
    for name in sorted(bench_doc):
        pairs = bench_doc[name]
        problem = _pairs_problem(pairs, sae_dim)
        if problem is not None:
            raise PoolError(f"target {name!r}: {problem}")
        dense = np.zeros(sae_dim, dtype=np.float64)
        for i, v in pairs:
            if v:
                dense[i] = float(v)
        if not dense.any():
            raise PoolError(f"target {name!r} is all-zero")
        dense.setflags(write=False)
        targets[name] = dense
    return sae_dim, targets


def load_signals(path: str, targets_path: str, pool: CanonicalPool) -> SignalTable:
    """Ingest cached signals and benchmark targets, validated against a pool.

    The signals JSONL must cover every pool id exactly once; the targets JSON
    supplies ``sae_dim`` and one sparse target vector per benchmark. Unigram
    entropy is filled in natively for every sample. Raises :class:`PoolError`
    on unknown ids, missing coverage, values of the wrong JSON type,
    out-of-range feature indices, negative values, or an all-zero
    IFD/varentropy column (which would make the pool-relative ratios in the
    state vector undefined). Of several bad lines, the first is reported.

    One pass appends each line's fields to flat buffers and stops at the
    first line whose JSON shape or types are off; ranges, values and
    repeated feature indices of the lines before it are then checked in
    numpy. The pass only detects problems: on any, :func:`_first_problem`
    re-reads the file for the message of its first offending line.
    """
    sae_dim, targets = _load_targets(targets_path)
    n = len(pool)
    index = pool.index
    seen = bytearray(n)
    positions, entry_counts = array("q"), array("q")
    scalars, indices, values = array("d"), array("q"), array("d")
    complete = False  # the pass read every line without a problem
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and _NOT_UTF8.search(line):
                break
            try:  # an object whose id is a pool id, else KeyError or TypeError
                rec = json.loads(line)
                pos = index[rec["id"]]
                row = (rec.get("ifd"), rec.get("varentropy"), rec.get("ao"))
                if seen[pos] or not _NUMBER.issuperset(map(type, row)):
                    break
                scalars.extend(row)
                count = _append_pairs(rec.get("sparse", []), indices, values)
            except (KeyError, RecursionError, *_BUFFER_ERRORS):
                break
            seen[pos] = 1
            positions.append(pos)
            entry_counts.append(count)
        else:
            complete = True

    # Buffers may end with part of the line the pass stopped at.
    n_rows = len(positions)
    pos_arr = np.frombuffer(positions, dtype=np.int64)
    count_arr = np.frombuffer(entry_counts, dtype=np.int64)
    n_entries = int(count_arr.sum())
    scalar_rows = np.frombuffer(scalars)[: 3 * n_rows].reshape(n_rows, 3)
    bad, indptr, act_indices, act_data = _sparse_csr(
        np.repeat(pos_arr, count_arr),
        np.frombuffer(indices, dtype=np.int64)[:n_entries],
        np.frombuffer(values)[:n_entries],
        n, sae_dim,
    )
    if bad or not complete or not ((scalar_rows >= 0) & (scalar_rows < np.inf)).all():
        raise PoolError(_first_problem(path, index, sae_dim))
    missing = n - n_rows
    if missing:
        raise PoolError(f"missing signals for {missing} sample(s)")
    ifd, varentropy, ao = (np.full(n, np.nan) for _ in _SCALARS)
    for k, column in enumerate((ifd, varentropy, ao)):
        column[pos_arr] = scalar_rows[:, k]
    if not ifd.any():
        raise PoolError("all-zero ifd column")
    if not varentropy.any():
        raise PoolError("all-zero varentropy column")

    activations = sp.csr_matrix((act_data, act_indices, indptr), shape=(n, sae_dim))
    ngram = _unigram_entropy(pool.samples)
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
        relevance=relevance,
        has_activations=has_act,
        pool_snar=pool_snar,
        pool_mean_ifd=float(ifd.mean()),
        pool_mean_varentropy=float(varentropy.mean()),
    )
