"""Grounded subset operators over a fixed canonicalized pool.

Every operator is a pure transformer: subset in, subset out, never an id the
pool does not contain. Selector operators (IFD, varentropy, n-gram entropy,
AO) are a single top-fraction routine over the cached rank of the
corresponding signal column; benchmark-relevance selection unions
per-benchmark top fractions; SemDedup is cluster-then-greedy near-duplicate
removal; random-k is the seeded stochastic escape; mix unions the current
subset with a previously evaluated one. Ties are always broken by pool order
so repeated application is bit-identical. An operator is stochastic exactly
when its catalog entry has a ``seed`` parameter (SemDedup and random-k); the
matched-seed protocol of ``exec --seeds`` overrides the steps that have one.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import numpy as np
from scipy import sparse as sp

from .pool import CanonicalPool, SignalTable, json_float


class OperatorError(ValueError):
    """Raised when an operator's preconditions are violated."""


@dataclass(eq=False)
class Subset:
    """An ordered id set over one pool, stored as sorted pool positions."""

    positions: np.ndarray  # int64, strictly increasing
    pool: CanonicalPool
    _digest: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        pos.setflags(write=False)
        self.positions = pos

    @classmethod
    def full(cls, pool: CanonicalPool) -> "Subset":
        return cls(np.arange(len(pool), dtype=np.int64), pool)

    def __len__(self) -> int:
        return int(self.positions.size)

    def ids(self) -> list[str]:
        return list(map(self.pool.ids.__getitem__, self.positions.tolist()))

    def content_hash(self) -> str:
        """SHA-256 of the sorted ids, each UTF-8 encoded and ``\\x00``-terminated.

        One hash call over the pool's id buffer, restricted to this subset's
        entries. Computed on the first call only: the positions are read-only
        and the pool is fixed, so the digest cannot go stale.
        """
        if self._digest is None:
            pool = self.pool
            chosen = np.zeros(len(pool), dtype=bool)
            chosen[pool.id_rank[self.positions]] = True
            data = pool.id_bytes[np.repeat(chosen, pool.id_lengths)]
            self._digest = hashlib.sha256(data).hexdigest()
        return self._digest


# ---------------------------------------------------------------------------
# Operator catalog
# ---------------------------------------------------------------------------

MONA_FILTER = "mona_filter"
IFD_TOPFRAC = "ifd_topfrac"
VARENTROPY_TOPFRAC = "varentropy_topfrac"
NGRAM_TOPFRAC = "ngram_topfrac"
AO_TOPFRAC = "ao_topfrac"
SEMDEDUP = "semdedup"
RANDOM_K = "random_k"
MIX = "mix"

# The top-fraction selectors in catalog order, each with the SignalTable
# column it ranks; the catalog, dispatch and the single-op suite read them here.
SELECTOR_COLUMNS = {
    IFD_TOPFRAC: "ifd",
    VARENTROPY_TOPFRAC: "varentropy",
    NGRAM_TOPFRAC: "ngram_entropy",
    AO_TOPFRAC: "ao",
}


# Sampled fraction parameters: the range they are drawn and retuned in, and
# the decimal places they are rounded to. Sampled seeds lie in [0, SEED_BOUND).
FRACTION_RANGE = (0.01, 1.0)
FRACTION_DIGITS = 4
SEED_BOUND = 2**31 - 1


@dataclass(frozen=True)
class ParamSpec:
    """One operator parameter. Its kind decides how a value is checked, read
    from JSON, drawn and retuned; no other code branches on it. A parameter
    without a default is required; a bound of None is not published."""

    kind: str                 # "fraction" | "int" | "seed" | "source"
    minimum: float | None = None
    maximum: float | None = None
    default: Any = None
    sample_max: float | None = None  # upper bound used when sampling, if tighter

    def check(self, key: str, value) -> str | None:
        """The violation of ``value`` for parameter ``key``, or None."""
        if self.kind == "fraction":
            try:
                v = json_float(value)
            except TypeError:
                return f"{key} must be a number"
            except OverflowError:  # an integer too large for a float
                v = math.inf
            if not 0.0 < v <= 1.0:  # NaN fails every comparison
                return f"{key} out of (0,1]"
        elif self.kind == "source":
            if source_step(str(value)) is None:
                return f"source must be 'incumbent' or 'eval:<t>', got {value!r}"
        elif not _is_integral(value):
            return f"{key} must be an integer"
        elif abs(value) > sys.float_info.max:  # an integer too large for a float
            return f"{key} out of range"
        elif int(value) < self.minimum:
            if self.kind == "seed":
                return f"{key} must be nonnegative"
            return f"{key} must be >= {int(self.minimum)}"
        return None

    def read(self, value):
        """A JSON ``value``, an integral float made an ``int`` for the integer kinds."""
        if self.kind in ("int", "seed") and isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    def sample(self, rng: np.random.Generator):
        """A uniform draw within the sampling range; a source is its default."""
        if self.kind == "fraction":
            return round(float(rng.uniform(*FRACTION_RANGE)), FRACTION_DIGITS)
        if self.kind == "int":
            return int(rng.integers(int(self.minimum), int(self.sample_max or self.maximum) + 1))
        if self.kind == "seed":
            return int(rng.integers(0, SEED_BOUND))
        return self.default

    def retune(self, value, rng: np.random.Generator):
        """A fraction or int ``value`` moved uniformly, clipped to its sampling range."""
        if self.kind == "fraction":
            delta = float(rng.uniform(-0.2, 0.2))
            lo, hi = FRACTION_RANGE
            return round(min(max(float(value) + delta, lo), hi), FRACTION_DIGITS)
        hi = int(self.sample_max or self.maximum)
        span = max(1, int(round(0.2 * hi)))
        delta = int(rng.integers(-span, span + 1))
        return int(min(max(int(float(value)) + delta, int(self.minimum)), hi))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict[str, ParamSpec]
    primary: str | None           # parameter that enters the recipe encoding

    @property
    def encode_range(self) -> tuple[float, float] | None:
        """Zero up to the primary parameter's maximum; None without a primary."""
        return None if self.primary is None else (0.0, self.params[self.primary].maximum)

    def sample(self, rng: np.random.Generator) -> dict:
        """One draw of every parameter, in catalog order."""
        return {key: ps.sample(rng) for key, ps in self.params.items()}


@dataclass(frozen=True)
class Catalog:
    """The closed operator library shared by validation, encoding and prompts."""

    entries: tuple[CatalogEntry, ...]
    pool_size: int

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> CatalogEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(e.name == name for e in self.entries)

    def to_json(self) -> str:
        """The published catalog document (names, parameters, bounds)."""
        doc = {
            "pool_size": self.pool_size,
            "operators": [
                {
                    "name": e.name,
                    "primary_param": e.primary,
                    "encode_range": list(e.encode_range) if e.encode_range else None,
                    "params": {
                        k: {
                            "kind": p.kind,
                            "min": p.minimum,
                            "max": p.maximum,
                            "required": p.default is None,
                            "default": p.default,
                        }
                        for k, p in sorted(e.params.items())
                    },
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def default_catalog(pool_size: int, operators: Iterable[str] | None = None) -> Catalog:
    """Build the catalog, optionally restricted to a subset of operators.

    ``pool_size`` fixes the encoding normalization for count parameters and
    the sampling ranges for k and the cluster count.
    """
    cluster_cap = float(max(1, min(pool_size, 32)))
    all_entries = {
        **{name: CatalogEntry(name=name, params={"fraction": ParamSpec("fraction", 0.0, 1.0)},
                              primary="fraction")
           for name in (MONA_FILTER, *SELECTOR_COLUMNS)},
        SEMDEDUP: CatalogEntry(
            name=SEMDEDUP,
            params={
                "n_clusters": ParamSpec("int", 1.0, float(max(1, pool_size)),
                                        sample_max=cluster_cap),
                "tau": ParamSpec("fraction", 0.0, 1.0),
                "seed": ParamSpec("seed", 0.0, default=0),
            },
            primary="tau",
        ),
        RANDOM_K: CatalogEntry(
            name=RANDOM_K,
            params={
                "k": ParamSpec("int", 1.0, float(max(1, pool_size))),
                "seed": ParamSpec("seed", 0.0, default=0),
            },
            primary="k",
        ),
        MIX: CatalogEntry(
            name=MIX,
            params={"source": ParamSpec("source", default="incumbent")},
            primary=None,
        ),
    }
    names = list(operators) if operators is not None else list(all_entries)
    for n in names:
        if n not in all_entries:
            raise KeyError(f"unknown operator {n!r}")
    return Catalog(entries=tuple(all_entries[n] for n in names), pool_size=pool_size)


@dataclass(frozen=True)
class OperatorSpec:
    """One (operator, parameters) step of a recipe."""

    operator: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return self.operator == other.operator and dict(self.params) == dict(other.params)

    def __hash__(self) -> int:
        return hash((self.operator, tuple(sorted(self.params.items()))))


def validate_spec(spec: OperatorSpec, catalog: Catalog) -> list[str]:
    """Catalog validation; returns every violation rather than the first."""
    if spec.operator not in catalog:
        return [f"unknown operator {spec.operator!r}"]
    entry = catalog.get(spec.operator)
    problems: list[str] = []
    for key in spec.params:
        if key not in entry.params:
            problems.append(f"{spec.operator}: unknown parameter {key!r}")
    for key, ps in entry.params.items():
        if key in spec.params:
            problem = ps.check(key, spec.params[key])
        else:
            problem = None if ps.default is not None else f"missing parameter {key!r}"
        if problem:
            problems.append(f"{spec.operator}: {problem}")
    return problems


def _is_integral(value) -> bool:
    """A JSON integer, or a JSON float with an integral value (see ``json_float``)."""
    return type(value) is int or (type(value) is float and value.is_integer())


def source_step(ref: str) -> int | None:
    """The evaluation a mix source names: 0 for "incumbent", t for "eval:<t>"
    with t ASCII digits worth at least 1 (leading zeros allowed), else None.
    Past 18 digits t gives sys.maxsize, more evaluations than any run has."""
    if ref == "incumbent":
        return 0
    digits = ref[5:].lstrip("0") if ref.startswith("eval:") else ""
    if not (digits.isascii() and digits.isdigit()):  # isdigit passes "²"; "" was all zeros
        return None
    return int(digits) if len(digits) <= 18 else sys.maxsize


# ---------------------------------------------------------------------------
# Scalar-signal selectors
# ---------------------------------------------------------------------------

def _top_mask(ranks: np.ndarray, keep: int) -> np.ndarray:
    """Mask of the ``keep`` smallest of distinct integer ranks.

    Exactly ``keep`` ranks are at or below the keep-th smallest one, which
    one partition finds.
    """
    return ranks <= np.partition(ranks, keep - 1)[keep - 1]


def apply_top_fraction(subset: Subset, rank: np.ndarray, alpha: float) -> Subset:
    """Retain the ceil(alpha * |subset|) highest-scoring samples.

    ``rank`` is a pool-length :func:`~recipesearch.pool.descending_rank` of
    the scores, such as ``SignalTable.rank("ifd")``, so ties go to the earlier
    pool position.
    """
    if len(subset) == 0:
        raise OperatorError("empty input subset")
    if not (0.0 < alpha <= 1.0):
        raise OperatorError(f"fraction out of (0,1]: {alpha}")
    rank = np.asarray(rank)
    if rank.shape != (len(subset.pool),) or rank.dtype.kind not in "iu":
        raise OperatorError(
            f"rank of {rank.dtype} and shape {rank.shape} for a pool of "
            f"{len(subset.pool)} samples; expected pool-length integer ranks"
        )
    keep = math.ceil(alpha * len(subset))
    # np.compress, several times faster here than indexing with the mask
    chosen = _top_mask(rank[subset.positions], keep)
    return Subset(np.compress(chosen, subset.positions), subset.pool)


# ---------------------------------------------------------------------------
# Benchmark-relevance selection
# ---------------------------------------------------------------------------

def apply_mona_union(subset: Subset, signals: SignalTable, fraction: float) -> Subset:
    """Per-benchmark top-fraction by relevance, unioned across benchmarks."""
    if subset.pool is not signals.pool:
        raise OperatorError("relevance union with the signals of another pool")
    if len(subset) == 0:
        raise OperatorError("empty input subset")
    if not signals.benchmarks:
        raise OperatorError("no benchmark targets available")
    if not (0.0 < fraction <= 1.0):
        raise OperatorError(f"fraction out of (0,1]: {fraction}")
    keep = math.ceil(fraction * len(subset))
    chosen = np.zeros(len(subset), dtype=bool)
    for ranks in signals.relevance_rank:
        chosen |= _top_mask(ranks[subset.positions], keep)
    return Subset(np.compress(chosen, subset.positions), subset.pool)


# ---------------------------------------------------------------------------
# Seeded minibatch k-means (used only by SemDedup)
# ---------------------------------------------------------------------------

KMEANS_BATCH_SIZE = 1024
KMEANS_EPOCHS = 10


def _check_cluster_count(n_clusters: int, n: int) -> None:
    if n_clusters < 1:
        raise OperatorError(f"n_clusters must be >= 1, got {n_clusters}")
    if n_clusters > n:
        raise OperatorError(f"n_clusters {n_clusters} exceeds subset size {n}")


def _copy_row(x: sp.csr_matrix, i: int, out: np.ndarray) -> None:
    """Write row ``i`` of ``x`` densely into ``out``, as ``x[i].toarray()``
    would: the stored entries summed into zeros in stored order."""
    lo, hi = x.indptr[i], x.indptr[i + 1]
    out[:] = np.bincount(x.indices[lo:hi], x.data[lo:hi], minlength=out.size)


def _kmeans_plusplus(x: sp.csr_matrix, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on L2-normalized rows; returns dense centers."""
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    d2 = np.full(n, np.inf)
    pick = int(rng.integers(n))
    for j in range(n_clusters):
        if j:
            total = d2.sum()
            pick = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        _copy_row(x, pick, centers[j])
        # rows are unit-norm, so ||x - c||^2 = 1 + ||c||^2 - 2 x.c
        d2 = np.minimum(d2, np.maximum(1.0 + (centers[j] ** 2).sum() - 2.0 * (x @ centers[j]), 0.0))
    return centers


def _row_blocks(x: sp.csr_matrix, size: int) -> Iterator[tuple[int, int, sp.csr_matrix]]:
    """``(start, stop, rows)`` over consecutive slices of at most ``size``
    rows of ``x``; ``x`` itself when it fits in one."""
    n = x.shape[0]
    if n <= size:
        yield 0, n, x
        return
    for start in range(0, n, size):
        stop = min(start + size, n)
        yield start, stop, x[start:stop]


def _assign(x: sp.csr_matrix, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels and squared distances for unit-norm rows.

    Rows go through in blocks of KMEANS_BATCH_SIZE, so the dense distance
    block is at most KMEANS_BATCH_SIZE x n_clusters. A row's distances do
    not depend on the block it is in.
    """
    shift = 1.0 + (centers**2).sum(axis=1)
    labels = np.empty(x.shape[0], dtype=np.intp)
    d2 = np.empty(x.shape[0])
    for start, stop, rows in _row_blocks(x, KMEANS_BATCH_SIZE):
        dist = shift - 2.0 * (rows @ centers.T)
        labels[start:stop] = np.argmin(dist, axis=1)
        d2[start:stop] = dist[np.arange(stop - start), labels[start:stop]]
    return labels, d2


def minibatch_kmeans(x: sp.csr_matrix, n_clusters: int, seed: int) -> np.ndarray:
    """Cluster unit-norm CSR rows; returns per-row labels.

    k-means++ seeding, KMEANS_EPOCHS passes of shuffled minibatches of at
    most KMEANS_BATCH_SIZE rows with count-weighted center updates, and a
    final repair pass that re-seeds any empty cluster to the point farthest
    from its assigned center.

    Each epoch permutes ``x`` once and takes its batches as contiguous row
    ranges. A batch's cluster means come from one ``np.bincount`` over the
    batch's stored entries in batch order, each entry first scaled by
    1/size of its cluster. bincount adds its weights into zeros in input
    order, so every (cluster, column) sum adds the same products in the
    same order as ``.mean(axis=0)`` over the members, and as the sparse
    indicator product this code replaced: the labels are bit for bit the
    same.
    """
    n, dim = x.shape
    _check_cluster_count(n_clusters, n)
    rng = np.random.default_rng(seed)
    centers = _kmeans_plusplus(x, n_clusters, rng)
    counts = np.zeros(n_clusters, dtype=np.int64)
    for _ in range(KMEANS_EPOCHS):
        for _, _, m in _row_blocks(x[rng.permutation(n)], KMEANS_BATCH_SIZE):
            labels, _ = _assign(m, centers)
            sizes = np.bincount(labels, minlength=n_clusters)
            present = np.flatnonzero(sizes)
            # means row j is cluster present[j]; slot is each stored entry's row
            slot = np.repeat((np.cumsum(sizes > 0) - 1)[labels], np.diff(m.indptr))
            sizes = sizes[present]
            means = np.bincount(
                slot * dim + m.indices, (1.0 / sizes)[slot] * m.data,
                minlength=present.size * dim,
            ).reshape(present.size, dim)
            counts[present] += sizes
            eta = (sizes / counts[present])[:, None]
            centers[present] = (1.0 - eta) * centers[present] + eta * means
    labels, d2 = _assign(x, centers)
    for _ in range(n_clusters):
        present = np.bincount(labels, minlength=n_clusters) > 0
        if present.all():
            break
        _copy_row(x, int(np.argmax(d2)), centers[int(np.flatnonzero(~present)[0])])
        labels, d2 = _assign(x, centers)
    return labels


def apply_semdedup(
    subset: Subset, signals: SignalTable, n_clusters: int, tau: float, seed: int,
) -> Subset:
    """Cluster activation vectors, then greedily drop near-duplicates.

    Within each cluster the subset is scanned in pool order; a sample is kept
    iff its maximum cosine to the already-kept samples of that cluster stays
    below ``tau``.
    """
    if subset.pool is not signals.pool:
        raise OperatorError("semdedup with the signals of another pool")
    n = len(subset)
    if n == 0:
        raise OperatorError("empty input subset")
    if not (0.0 < tau <= 1.0):
        raise OperatorError(f"tau out of (0,1]: {tau}")
    _check_cluster_count(n_clusters, n)
    x = signals.activations[subset.positions]
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    if (norms == 0).any():
        bad = subset.positions[int(np.flatnonzero(norms == 0)[0])]
        raise OperatorError(
            f"zero-norm activation vector for id {subset.pool.ids[bad]!r}"
        )
    x = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
    labels = minibatch_kmeans(x, n_clusters, seed)
    keep_mask = semdedup_greedy_pass(x, labels, tau)
    return Subset(subset.positions[keep_mask], subset.pool)


SEMDEDUP_BLOCK_ROWS = 128


def semdedup_greedy_pass(
    x_normalized: sp.csr_matrix, labels: np.ndarray, tau: float
) -> np.ndarray:
    """Greedy near-duplicate drop for a fixed clustering; returns a keep mask.

    Rows are scanned in their given order (pool order); a row survives iff
    its max cosine to the rows already kept in its cluster stays below tau,
    with tau in (0, 1].

    Each stored entry's column moves into its cluster's block: the block
    columns number the (cluster, feature) pairs that occur. Two rows then
    share a column only if they share a cluster, so one sparse product of
    SEMDEDUP_BLOCK_ROWS rows against all rows holds every within-cluster
    cosine of those rows and nothing else. scipy sums each entry of a CSR
    product over the left row's stored entries in stored order; moving the
    columns keeps that order, and the left row is the earlier one, so every
    cosine is bit for bit the one a product of that single pair gives.

    The pairs s < r at cosine >= tau are edges s -> r, taken block by block
    in order of s. When s's edges come up, every edge into s has been seen,
    so s is settled: a kept s drops its targets. A source that no edge
    reaches is kept, so its targets in the block are dropped in one step
    first. The pass is linear in the number of edges, and a block holds at
    most SEMDEDUP_BLOCK_ROWS x cluster-size cosines at a time.
    """
    n = x_normalized.shape[0]
    _, cluster = np.unique(labels, return_inverse=True)
    pair = np.repeat(cluster.astype(np.int64), np.diff(x_normalized.indptr))
    pairs, columns = np.unique(
        pair * x_normalized.shape[1] + x_normalized.indices, return_inverse=True
    )
    blocked = sp.csr_matrix(
        (x_normalized.data, columns, x_normalized.indptr), shape=(n, pairs.size)
    )
    blocked_t = blocked.T.tocsr()
    keep = np.ones(n, dtype=bool)
    for start, stop, rows in _row_blocks(blocked, SEMDEDUP_BLOCK_ROWS):
        gram = rows @ blocked_t
        close = np.flatnonzero(gram.data >= tau)
        sources = start + np.searchsorted(gram.indptr, close, side="right") - 1
        targets = gram.indices[close]
        live = (targets > sources) & keep[sources] & keep[targets]
        sources, targets = sources[live], targets[live]
        inside = targets < stop
        _settle_block(keep[start:stop], sources[inside] - start, targets[inside] - start)
        outside = ~inside
        keep[targets[outside][keep[sources[outside]]]] = False
    return keep


def _settle_block(keep: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> None:
    """Apply edges ``s -> r`` (``s < r``, ordered by ``s``, both ends still
    kept) to ``keep`` in place: r is dropped iff a kept s reaches it."""
    reached = np.zeros(keep.size, dtype=bool)
    reached[targets] = True
    keep[targets[~reached[sources]]] = False
    live = keep[sources] & keep[targets]
    kept = keep.tolist()
    for s, r in zip(sources[live].tolist(), targets[live].tolist()):
        if kept[s]:
            kept[r] = False
    keep[:] = kept


# ---------------------------------------------------------------------------
# Stochastic escape and set composition
# ---------------------------------------------------------------------------

def apply_random_k(subset: Subset, k: int, seed: int) -> Subset:
    """Uniform sample of min(k, |subset|) ids without replacement, seeded."""
    if len(subset) == 0:
        raise OperatorError("empty input subset")
    if k < 1:
        raise OperatorError(f"k must be >= 1, got {k}")
    keep = min(int(k), len(subset))
    rng = np.random.default_rng(seed)
    picked = rng.choice(subset.positions, size=keep, replace=False)
    return Subset(np.sort(picked), subset.pool)


def apply_mix(current: Subset, source: Subset) -> Subset:
    """Union by id with a previously evaluated subset of the same pool."""
    if current.pool is not source.pool:
        raise OperatorError("mix across different pools")
    union = np.zeros(len(current.pool), dtype=bool)
    union[current.positions] = True
    union[source.positions] = True
    return Subset(np.flatnonzero(union), current.pool)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def apply_step(
    spec: OperatorSpec, subset: Subset, signals: SignalTable,
    resolve_source=None,
) -> Subset:
    """Apply one validated operator step to a subset.

    ``resolve_source`` maps a mix source reference ("incumbent" or
    "eval:<t>") to a previously evaluated Subset; executing a mix step
    without it is an error. ``subset`` must be of ``signals.pool``.
    """
    if subset.pool is not signals.pool:
        raise OperatorError(f"{spec.operator} with the signals of another pool")
    op = spec.operator
    if op in SELECTOR_COLUMNS:
        return apply_top_fraction(
            subset, signals.rank(SELECTOR_COLUMNS[op]), float(spec.param("fraction")))
    if op == MONA_FILTER:
        return apply_mona_union(subset, signals, float(spec.param("fraction")))
    if op == SEMDEDUP:
        return apply_semdedup(
            subset, signals,
            n_clusters=int(spec.param("n_clusters")),
            tau=float(spec.param("tau")),
            seed=int(spec.param("seed", 0)),
        )
    if op == RANDOM_K:
        return apply_random_k(subset, int(spec.param("k")), int(spec.param("seed", 0)))
    if op == MIX:
        ref = str(spec.param("source", "incumbent"))
        if resolve_source is None:
            raise OperatorError(f"unresolvable mix source {ref!r}: no history available")
        source = resolve_source(ref)
        if source is None:
            raise OperatorError(f"unresolvable mix source {ref!r}")
        return apply_mix(subset, source)
    raise OperatorError(f"unknown operator {op!r}")


def step_size_range(
    spec: OperatorSpec, lo: int, hi: int, n_benchmarks: int,
) -> tuple[int, int] | None:
    """The least and greatest output size of ``apply_step(spec, s)`` over
    input sizes ``lo <= len(s) <= hi``, whenever the step does not raise;
    None when the operator's output size has no bound (mix, or unknown).

    Parameters are read as :func:`apply_step` reads them. ``ceil(f * m)`` is
    nondecreasing in m, and each relevance mask keeps exactly that many.
    """
    op = spec.operator
    if op in SELECTOR_COLUMNS:
        f = float(spec.param("fraction"))
        return math.ceil(f * lo), math.ceil(f * hi)
    if op == MONA_FILTER:
        f = float(spec.param("fraction"))
        return math.ceil(f * lo), min(n_benchmarks * math.ceil(f * hi), hi)
    if op == SEMDEDUP:
        return 1, hi  # the first sample of each cluster is kept
    if op == RANDOM_K:
        k = int(spec.param("k"))
        return min(k, lo), min(k, hi)
    return None
