"""Pool ingestion: a columnar pool of canonicalized samples plus cached signals.

The raw pool is a JSONL file of instruction/response records. Loading
canonicalizes it into an immutable, order-stable pool held as columns: the
ids, instructions, responses and sources as tuples of strings, and the
whitespace token count and unigram entropy of each sample as arrays, both
taken from one tokenization of its text. Cached model-side signals (IFD,
varentropy, AO, sparse activation vectors) and benchmark target vectors are
ingested from separate files and validated against the pool, which the
signal table keeps as its own. Everything is frozen after load, so any
number of workers may read a pool and its signal table concurrently. The
values a signal table derives from its columns (pool statistics, activation
pattern, selector ranks) are cached on first read; two concurrent first
reads compute the same value. A pool's manifest record lines are
formatted on first use and kept while it lives; two concurrent first uses
format the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from array import array
from collections import _count_elements
from dataclasses import dataclass, field
from functools import cached_property
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

_scan_once = json.JSONDecoder().scan_once

# A manifest record line: the bytes of json.dumps(record, sort_keys=True).
_RECORD = '{"id": %s, "instruction": %s, "response": %s, "source": %s}\n'


def _loads(line: str):
    """``json.loads(line)`` of a line that ``str.strip`` has trimmed.

    The decoder's scanner is called directly, without the wrappers of
    ``json.loads``. ``str.strip`` removes every JSON whitespace character,
    so a line the scanner reads whole is one JSON document; any other line
    goes through ``json.loads`` itself, which raises its own error for it.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


@dataclass(frozen=True, eq=False)
class CanonicalPool:
    """Immutable columnar pool with stable ids and load-order positions.

    Position ``i`` of every column is the ``i``-th record of the file.
    ``token_counts`` holds each sample's whitespace token count and
    ``ngram_entropy`` the entropy of its unigram distribution (see
    :func:`load_pool`). ``id_rank``, ``id_bytes`` and ``id_lengths`` are the
    tables behind ``Subset.content_hash``: the rank of each id in code-point
    order, the UTF-8 ids in that order with a ``\\x00`` after each, and the
    length of each id's entry in the buffer, terminator included.
    ``id_rows``, derived on first read, views ``id_bytes`` as one row per id
    when every entry has the same length, and is None otherwise.
    ``all_positions`` is the read-only ``arange`` of the pool's positions,
    made on first read and shared by every whole-pool subset.

    Pools compare by identity; :meth:`content_digest` is a pool's content
    identity. :meth:`record_lines` formats each sample's manifest record
    line on first use and keeps it while the pool lives, about the pool's
    text size in memory (~10 MB at 50k samples).
    """

    ids: tuple[str, ...]
    instructions: tuple[str, ...]
    responses: tuple[str, ...]
    sources: tuple[str, ...]
    index: dict[str, int]
    total_tokens: int
    token_counts: np.ndarray = field(repr=False)   # int64, in pool order
    ngram_entropy: np.ndarray = field(repr=False)  # float64 bits, in pool order
    id_rank: np.ndarray = field(repr=False)        # int64, in pool order
    id_bytes: np.ndarray = field(repr=False)       # uint8, ids in rank order
    id_lengths: np.ndarray = field(repr=False)     # int64, in rank order

    def __len__(self) -> int:
        return len(self.ids)

    def content_digest(self) -> str:
        """Digest over canonical sample content, stable across loads.

        SHA-256 over the bytes of ``json.dumps([id, instruction, response,
        source])`` of each sample in pool order, formatted from the escaped
        strings.
        """
        h = hashlib.sha256()
        q = encode_basestring_ascii
        for sid, instruction, response, source in zip(
                self.ids, self.instructions, self.responses, self.sources):
            h.update(("[%s, %s, %s, %s]" % (
                q(sid), q(instruction), q(response), q(source))).encode())
        return h.hexdigest()

    @cached_property
    def id_rows(self) -> np.ndarray | None:
        width = int(self.id_lengths[0])
        if (self.id_lengths != width).any():  # an equal byte total is not enough
            return None
        return self.id_bytes.view(f"V{width}")  # read-only, as id_bytes is

    @cached_property
    def all_positions(self) -> np.ndarray:
        positions = np.arange(len(self.ids), dtype=np.int64)
        positions.setflags(write=False)
        return positions

    @cached_property
    def _record_cache(self) -> tuple[list, np.ndarray]:
        """Each position's record line once formatted, and which positions are."""
        return [None] * len(self.ids), np.zeros(len(self.ids), dtype=bool)

    def record_lines(self, positions: np.ndarray) -> list[bytes]:
        """The manifest record line of each position, in the given order.

        A line is the ASCII bytes of ``json.dumps(record, sort_keys=True)``
        plus ``\\n``, for the record of ``id``, ``instruction``, ``response``
        and ``source``, formatted from the escaped strings. Only positions no
        earlier call formatted are formatted now; each is marked formatted
        after its line is stored, so a concurrent reader never meets an
        unstored line, and two readers formatting the same position store
        equal bytes.
        """
        lines, done = self._record_cache
        missing = positions[~done[positions]]
        q = encode_basestring_ascii
        ids, instructions, responses, sources = (
            self.ids, self.instructions, self.responses, self.sources)
        for p in missing.tolist():
            lines[p] = (_RECORD % (q(ids[p]), q(instructions[p]), q(responses[p]),
                                   q(sources[p]))).encode()
        done[missing] = True
        return list(map(lines.__getitem__, positions.tolist()))


@dataclass(frozen=True, eq=False)
class SignalTable:
    """Per-sample cached signals of one pool, in its order, plus pool-level stats.

    ``pool`` is the pool the table was loaded for; where a subset or pool
    meets the table, any other pool is refused, by identity, as pools
    compare. Scalar columns are float64 arrays of length ``len(pool)``;
    ``ngram_entropy`` reads the pool's own column. ``activations`` is a CSR
    matrix of nonnegative sparse activations with explicit zeros dropped, so
    stored entries are exactly the active features. ``relevance`` is the
    ``(n, n_benchmarks)`` weighted Jaccard of each sample against each
    benchmark target; it is an input, as the targets are not kept.

    Everything else is derived from these columns on first read and cached:
    ``sae_dim``, the width of ``activations``; ``has_activations``, whether
    each sample has an active feature, and ``n_without_activations``, how
    many samples have none; ``pattern_t``, the sparsity pattern
    of ``activations`` transposed, a ``(sae_dim, n)`` CSR matrix of 1.0
    entries, so ``pattern_t @ mask`` counts the samples of a 0/1 row mask
    that activate each feature; ``pool_snar``, the activation rate of each
    feature over the samples with one; the pool means of ``ifd`` and
    ``varentropy``; ``rank(column)``, the :func:`descending_rank` of a
    scalar column such as ``"ifd"``, cached per column; and
    ``relevance_rank``, the ``(n_benchmarks, n)`` ranks of the relevance
    columns. Every derived array is read-only. A table made with
    ``dataclasses.replace`` starts with an empty cache, so it derives each
    value from its own columns. A NaN in a selector or relevance column is
    rejected when the table is made.
    """

    pool: CanonicalPool = field(repr=False)
    ifd: np.ndarray
    varentropy: np.ndarray
    ao: np.ndarray
    activations: sp.csr_matrix
    benchmarks: tuple[str, ...]
    relevance: np.ndarray                # (n, n_benchmarks) weighted-Jaccard scores

    def __post_init__(self) -> None:
        for column in (self.ifd, self.varentropy, self.ngram_entropy, self.ao, self.relevance):
            if np.isnan(column).any():
                raise PoolError("NaN in a ranked score column")

    @property
    def ngram_entropy(self) -> np.ndarray:
        return self.pool.ngram_entropy

    @property
    def sae_dim(self) -> int:
        return self.activations.shape[1]

    @cached_property
    def has_activations(self) -> np.ndarray:
        has_act = np.diff(self.activations.indptr) > 0
        has_act.setflags(write=False)
        return has_act

    @cached_property
    def n_without_activations(self) -> int:
        return len(self.has_activations) - int(np.count_nonzero(self.has_activations))

    @cached_property
    def pattern_t(self) -> sp.csr_matrix:
        act = self.activations
        # the CSR arrays of an (n, sae_dim) matrix are the CSC arrays of its transpose
        pattern_t = sp.csc_matrix(
            (np.ones(act.indices.size), act.indices, act.indptr), shape=act.shape[::-1]
        ).tocsr()
        for arr in (pattern_t.data, pattern_t.indices, pattern_t.indptr):
            arr.setflags(write=False)
        return pattern_t

    @cached_property
    def pool_snar(self) -> np.ndarray:
        counts = np.bincount(self.activations.indices, minlength=self.sae_dim)
        # without an active sample every count is 0, and so is every rate
        snar = counts / max(int(self.has_activations.sum()), 1)
        snar.setflags(write=False)
        return snar

    @cached_property
    def pool_mean_ifd(self) -> float:
        return float(self.ifd.mean())

    @cached_property
    def pool_mean_varentropy(self) -> float:
        return float(self.varentropy.mean())

    @cached_property
    def _ranks(self) -> dict[str, np.ndarray]:
        return {}

    def rank(self, column: str) -> np.ndarray:
        ranks = self._ranks
        if column not in ranks:
            ranks[column] = descending_rank(getattr(self, column))
        return ranks[column]

    @cached_property
    def relevance_rank(self) -> np.ndarray:
        n, n_benchmarks = self.relevance.shape
        ranks = np.empty((n_benchmarks, n), dtype=np.int64)
        for j in range(n_benchmarks):
            ranks[j] = descending_rank(self.relevance[:, j])
        ranks.setflags(write=False)
        return ranks


def descending_rank(scores: np.ndarray) -> np.ndarray:
    """Each score's place in a stable descending sort: 0 is the highest.

    Equal scores (``0.0`` and ``-0.0`` among them) go to the earlier
    position, so the ``k`` smallest ranks of any rows are the rows a stable
    descending sort of their scores puts first. Returns a read-only int64
    array; NaN scores are rejected.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise PoolError("NaN in a ranked score column")
    rank = np.empty(scores.size, dtype=np.int64)
    rank[np.argsort(-scores, kind="stable")] = np.arange(scores.size)
    rank.setflags(write=False)
    return rank


def _unigram_entropy(sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each sample's unigram distribution.

    The ``i``-th sample owns the next ``sizes[i]`` entries of ``counts``,
    its token counts in first-occurrence order; a sample without tokens gets
    0.0, so degenerate samples survive ingestion and can be removed by
    selectors instead. The samples with the same number of distinct tokens
    form one matrix whose contiguous rows are each reduced as a lone
    sample's counts would be, so every value is the one-sample value bit
    for bit.
    """
    starts = np.cumsum(sizes) - sizes
    out = np.zeros(sizes.size)
    for size in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == size)
        c = counts[starts[rows, None] + np.arange(size)].astype(np.float64)
        p = c / c.sum(axis=1, keepdims=True)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def _jsonl_objects(path: str, what: str):
    """Yield ``(lineno, object)`` for each nonblank line of a JSONL file.

    Each line is stripped with ``str.strip`` before it is decoded. Raises
    :class:`PoolError` at the first line that is not UTF-8, not one JSON
    document, or not a JSON object; ``what`` names the file in the first
    message.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and _NOT_UTF8.search(line):
                raise PoolError(f"{what} file {path}: line {lineno} is not valid UTF-8")
            try:
                rec = _loads(line)
            except (ValueError, RecursionError) as exc:
                raise PoolError(f"invalid JSON at line {lineno}: {exc}") from exc
            if type(rec) is not dict:
                raise PoolError(f"expected a JSON object at line {lineno}")
            yield lineno, rec


def load_pool(path: str) -> CanonicalPool:
    """Load and canonicalize a pool JSONL file.

    Records require ``id``, ``instruction``, ``response`` and ``source``
    fields. Load order is preserved and the same file always yields an
    identical pool. Any malformed line, one that is not UTF-8 included,
    aborts with a diagnostic naming it, and so does a pool without a single
    token, whose token ratios would be undefined.

    Each sample's text is tokenized once: the whitespace tokens of the
    lowercased instruction, then of the lowercased response, punctuation
    attached. Their number is the token count (lowercasing creates or
    removes no whitespace), and their counts give the unigram entropy.
    """
    ids: list[str] = []
    instructions: list[str] = []
    responses: list[str] = []
    sources: list[str] = []
    index: dict[str, int] = {}
    token_counts, sizes, counts = array("q"), array("q"), array("q")
    required = ("id", "instruction", "response", "source")
    for lineno, rec in _jsonl_objects(path, "pool"):
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
        if "\x00" in sid:  # NUL ends each id in the bytes content_hash hashes
            raise PoolError(f"id contains U+0000 (NUL) at line {lineno}")
        if sid in index:
            raise PoolError(f"duplicate id {sid} at line {lineno}")
        try:
            sid.encode()
        except UnicodeEncodeError as exc:
            raise PoolError(f"id is not encodable as UTF-8 at line {lineno}") from exc
        index[sid] = len(ids)
        ids.append(sid)
        instructions.append(instruction)
        responses.append(response)
        sources.append(source)
        # lowercasing sees each field alone: a space ends a final sigma's context
        tokens = (instruction + " " + response).lower().split()
        token_counts.append(len(tokens))
        unigrams: dict[str, int] = {}
        _count_elements(unigrams, tokens)  # the tally behind Counter, in first-occurrence order
        sizes.append(len(unigrams))
        counts.extend(unigrams.values())
    if not ids:
        raise PoolError(f"empty pool file: {path}")
    n = len(ids)
    token_counts = np.frombuffer(token_counts, dtype=np.int64)
    total_tokens = int(token_counts.sum())
    if total_tokens == 0:  # every state's token ratio would be 0/0
        raise PoolError(f"no sample has a token in pool file {path}")
    ngram = _unigram_entropy(np.frombuffer(sizes, dtype=np.int64),
                             np.frombuffer(counts, dtype=np.int64))
    by_id = sorted(index)
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[[index[sid] for sid in by_id]] = np.arange(n)
    id_bytes = np.frombuffer(("\x00".join(by_id) + "\x00").encode(), dtype=np.uint8)
    id_lengths = np.fromiter((len(sid.encode()) + 1 for sid in by_id), dtype=np.int64,
                             count=n)
    for arr in (token_counts, ngram, id_rank, id_lengths):
        arr.setflags(write=False)
    return CanonicalPool(
        ids=tuple(ids),
        instructions=tuple(instructions),
        responses=tuple(responses),
        sources=tuple(sources),
        index=index,
        total_tokens=total_tokens,
        token_counts=token_counts,
        ngram_entropy=ngram,
        id_rank=id_rank,
        id_bytes=id_bytes,
        id_lengths=id_lengths,
    )


# The signals fields checked before ``sparse``, in order. A JSON integer
# decodes to ``int`` and any other JSON number to ``float``; the checks
# compare exact types, so true and false (``bool``) are not numbers.
_SCALARS = ("ifd", "varentropy", "ao")


def json_float(value) -> float:
    """An exact ``int`` or ``float``, as ``json`` decodes a number, as a float. Anything else
    (a bool, a string, a numpy scalar) raises TypeError; an int too large, OverflowError."""
    if type(value) not in (int, float):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def _as_float(value: int) -> float:
    """A JSON integer as a float; one too large for a float is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _scalars_into(rec: dict, scalars: array) -> str | None:
    """Check a signals record's scalar fields and append them; return the first problem.

    Field by field in ``_SCALARS`` order: missing, not a JSON number, then
    negative or non-finite. On a problem, part of the record may have been
    appended.
    """
    for name in _SCALARS:
        if name not in rec:
            return f"missing field {name!r}"
        value = rec[name]
        if type(value) is not float:
            if type(value) is not int:
                return f"{name} must be a JSON number, got {value!r}"
            value = _as_float(value)
        if not 0.0 <= value < math.inf:
            return f"negative or non-finite {name} value {value}"
        scalars.append(value)
    return None


def _sparse_into(pairs, sae_dim: int, indices: array, values: array) -> str | None:
    """Check one sparse vector and append its nonzero entries; return the first problem.

    Entry by entry: its shape, the JSON types of index and value, the index
    range, then the value; after the last entry, the smallest feature index
    repeated among the nonzero values. On a problem, part of the vector may
    have been appended.
    """
    if type(pairs) is not list:
        return f"sparse must be an array of [index, value] pairs, got {pairs!r}"
    start = len(indices)
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            return f"sparse entry must be [index, value], got {pair!r}"
        i, v = pair
        if type(i) is not int:
            return f"feature index must be a JSON integer, got {i!r}"
        if type(v) is not float:
            if type(v) is not int:
                return f"sparse value must be a JSON number, got {v!r}"
            v = _as_float(v)
        if not 0 <= i < sae_dim:
            return f"feature index out of range ({i} >= sae_dim {sae_dim})"
        if not 0.0 <= v < math.inf:
            return f"negative or non-finite sparse value {v}"
        if v:
            indices.append(i)
            values.append(v)
    active = indices[start:]
    if len(set(active)) < len(active):
        active = sorted(active)
        repeated = next(i for i, j in zip(active, active[1:]) if i == j)
        return f"duplicate feature index {repeated}"
    return None


def _csr_parts(rows: np.ndarray, indices: np.ndarray, values: np.ndarray,
               n_rows: int, n_cols: int):
    """``indptr``, ``indices`` and ``data`` of flat (row, index, value) entries
    ordered by (row, index); no (row, index) pair may repeat.

    One sort of the key ``row * n_cols + index`` orders them, and a stable
    sort is fast on entries already written in order."""
    order = np.argsort(rows * n_cols + indices, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, indices[order], values[order]


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
    if type(sae_dim) is not int or sae_dim <= 0:
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
        indices, values = array("q"), array("d")
        problem = _sparse_into(bench_doc[name], sae_dim, indices, values)
        if problem is not None:
            raise PoolError(f"target {name!r}: {problem}")
        dense = np.zeros(sae_dim, dtype=np.float64)
        dense[np.frombuffer(indices, dtype=np.int64)] = np.frombuffer(values)
        if not dense.any():
            raise PoolError(f"target {name!r} is all-zero")
        dense.setflags(write=False)
        targets[name] = dense
    return sae_dim, targets


def load_signals(path: str, targets_path: str, pool: CanonicalPool) -> SignalTable:
    """Ingest cached signals and benchmark targets, validated against a pool.

    The signals JSONL must cover every pool id exactly once; the targets JSON
    supplies ``sae_dim`` and one sparse target vector per benchmark. The
    table keeps ``pool`` and reads its unigram entropy. Raises
    :class:`PoolError` on unknown ids, missing coverage, values of the wrong
    JSON type, out-of-range feature indices, negative values, or an all-zero
    IFD/varentropy column (which would make the pool-relative ratios in the
    state vector undefined). Of several bad lines, the first is reported.

    The file is read once, and each line is checked as it is read: its id
    (unknown, then repeated), then ``ifd``, ``varentropy`` and ``ao``, then
    ``sparse``.
    """
    sae_dim, targets = _load_targets(targets_path)
    n = len(pool)
    index = pool.index
    seen = bytearray(n)
    positions, entry_counts = array("q"), array("q")
    scalars, indices, values = array("d"), array("q"), array("d")
    for lineno, rec in _jsonl_objects(path, "signals"):
        sid = rec.get("id", "")
        pos = index.get(sid) if type(sid) is str else None
        if pos is None:
            problem = f"id {sid!r} not in pool"
        elif seen[pos]:
            problem = f"duplicate signals for id {sid!r}"
        else:
            start = len(indices)
            problem = (_scalars_into(rec, scalars)
                       or _sparse_into(rec.get("sparse", []), sae_dim, indices, values))
        if problem is not None:
            raise PoolError(f"signals line {lineno}: {problem}")
        seen[pos] = 1
        positions.append(pos)
        entry_counts.append(len(indices) - start)
    missing = n - len(positions)
    if missing:
        raise PoolError(f"missing signals for {missing} sample(s)")

    pos_arr = np.frombuffer(positions, dtype=np.int64)
    indptr, act_indices, act_data = _csr_parts(
        np.repeat(pos_arr, np.frombuffer(entry_counts, dtype=np.int64)),
        np.frombuffer(indices, dtype=np.int64), np.frombuffer(values), n, sae_dim,
    )
    scalar_rows = np.frombuffer(scalars).reshape(n, 3)
    ifd, varentropy, ao = (np.full(n, np.nan) for _ in _SCALARS)
    for k, column in enumerate((ifd, varentropy, ao)):
        column[pos_arr] = scalar_rows[:, k]
    if not ifd.any():
        raise PoolError("all-zero ifd column")
    if not varentropy.any():
        raise PoolError("all-zero varentropy column")

    activations = sp.csr_matrix((act_data, act_indices, indptr), shape=(n, sae_dim))
    benchmarks = tuple(sorted(targets))
    relevance = np.column_stack(
        [_weighted_jaccard_matrix(activations, targets[b]) for b in benchmarks]
    )
    for arr in (ifd, varentropy, ao, relevance):
        arr.setflags(write=False)
    return SignalTable(
        pool=pool,
        ifd=ifd,
        varentropy=varentropy,
        ao=ao,
        activations=activations,
        benchmarks=benchmarks,
        relevance=relevance,
    )
