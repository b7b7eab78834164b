"""Grounded subset operators over a fixed canonicalized pool.

Every operator is a pure transformer: subset in, subset out, never an id the
pool does not contain. Selector operators (IFD, varentropy, n-gram entropy,
AO) are a single top-fraction routine over the corresponding signal column;
benchmark-relevance selection unions per-benchmark top fractions; SemDedup is
cluster-then-greedy near-duplicate removal; random-k is the seeded stochastic
escape; mix unions the current subset with a previously evaluated one. Ties
are always broken by pool order so repeated application is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np
from scipy import sparse as sp

from .pool import CanonicalPool, SignalTable


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

    @classmethod
    def from_ids(cls, ids: Iterable[str], pool: CanonicalPool) -> "Subset":
        pos = np.array(sorted(pool.index[i] for i in ids), dtype=np.int64)
        return cls(pos, pool)

    def __len__(self) -> int:
        return int(self.positions.size)

    def ids(self) -> list[str]:
        return [self.pool.samples[p].id for p in self.positions]

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

SELECTOR_COLUMNS = {
    IFD_TOPFRAC: "ifd",
    VARENTROPY_TOPFRAC: "varentropy",
    NGRAM_TOPFRAC: "ngram_entropy",
    AO_TOPFRAC: "ao",
}

# Operators whose execution consumes a PRNG seed (the matched-seed protocol
# overrides exactly these).
STOCHASTIC_OPERATORS = (SEMDEDUP, RANDOM_K)


@dataclass(frozen=True)
class ParamSpec:
    """Bounds and sampling range for one operator parameter."""

    kind: str                 # "fraction" | "int" | "seed" | "source"
    minimum: float = 0.0
    maximum: float = 1.0
    required: bool = True
    default: Any = None
    sample_max: float | None = None  # upper bound used when sampling, if tighter


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict[str, ParamSpec]
    primary: str | None           # parameter that enters the recipe encoding
    encode_range: tuple[float, float] | None


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
                            "required": p.required,
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


def _fraction_entry(name: str) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        params={"fraction": ParamSpec("fraction", 0.0, 1.0)},
        primary="fraction",
        encode_range=(0.0, 1.0),
    )


def default_catalog(pool_size: int, operators: Iterable[str] | None = None) -> Catalog:
    """Build the catalog, optionally restricted to a subset of operators.

    ``pool_size`` fixes the encoding normalization for count parameters and
    the sampling ranges for k and the cluster count.
    """
    cluster_cap = float(max(1, min(pool_size, 32)))
    all_entries = {
        MONA_FILTER: _fraction_entry(MONA_FILTER),
        IFD_TOPFRAC: _fraction_entry(IFD_TOPFRAC),
        VARENTROPY_TOPFRAC: _fraction_entry(VARENTROPY_TOPFRAC),
        NGRAM_TOPFRAC: _fraction_entry(NGRAM_TOPFRAC),
        AO_TOPFRAC: _fraction_entry(AO_TOPFRAC),
        SEMDEDUP: CatalogEntry(
            name=SEMDEDUP,
            params={
                "n_clusters": ParamSpec("int", 1.0, float(max(1, pool_size)),
                                        sample_max=cluster_cap),
                "tau": ParamSpec("fraction", 0.0, 1.0),
                "seed": ParamSpec("seed", required=False, default=0),
            },
            primary="tau",
            encode_range=(0.0, 1.0),
        ),
        RANDOM_K: CatalogEntry(
            name=RANDOM_K,
            params={
                "k": ParamSpec("int", 1.0, float(max(1, pool_size))),
                "seed": ParamSpec("seed", required=False, default=0),
            },
            primary="k",
            encode_range=(0.0, float(max(1, pool_size))),
        ),
        MIX: CatalogEntry(
            name=MIX,
            params={"source": ParamSpec("source", required=False, default="incumbent")},
            primary=None,
            encode_range=None,
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
        if key not in spec.params:
            if ps.required:
                problems.append(f"{spec.operator}: missing parameter {key!r}")
            continue
        value = spec.params[key]
        if ps.kind == "fraction":
            try:
                v = float(value)
            except (TypeError, ValueError):
                problems.append(f"{spec.operator}: {key} must be a number")
                continue
            if not (0.0 < v <= 1.0) or not math.isfinite(v):
                problems.append(f"{spec.operator}: {key} out of (0,1]")
        elif ps.kind in ("int", "seed"):
            if not _is_integral(value):
                problems.append(f"{spec.operator}: {key} must be an integer")
            elif ps.kind == "seed" and int(value) < 0:
                problems.append(f"{spec.operator}: {key} must be nonnegative")
            elif ps.kind == "int" and int(value) < int(ps.minimum):
                problems.append(f"{spec.operator}: {key} must be >= {int(ps.minimum)}")
        elif ps.kind == "source":
            if not _valid_source(str(value)):
                problems.append(
                    f"{spec.operator}: source must be 'incumbent' or 'eval:<t>', got {value!r}"
                )
    return problems


def _is_integral(value) -> bool:
    """An integer, or a float with an integral value; never a bool or a string."""
    if isinstance(value, (bool, np.bool_)):
        return False
    return isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )


def _valid_source(source: str) -> bool:
    if source == "incumbent":
        return True
    if source.startswith("eval:"):
        tail = source[5:]
        return tail.isdigit() and int(tail) >= 1
    return False


# ---------------------------------------------------------------------------
# Scalar-signal selectors
# ---------------------------------------------------------------------------

def _top_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """Mask of the ``keep`` highest scores, earlier indices first among equals.

    One linear-time partition finds the keep-th highest value; everything
    above it is kept, then the earliest ties up to ``keep``. This is the set a
    stable descending sort puts first. ``scores`` must hold no NaN.
    """
    n = scores.size
    if keep >= n:
        return np.ones(n, dtype=bool)
    cut = np.partition(scores, n - keep)[n - keep]
    mask = scores > cut
    ties = np.flatnonzero(scores == cut)
    mask[ties[: keep - np.count_nonzero(mask)]] = True
    return mask


def apply_top_fraction(subset: Subset, scores: np.ndarray, alpha: float) -> Subset:
    """Retain the ceil(alpha * |subset|) highest-scoring samples.

    ``scores`` is aligned to ``subset.positions``, which are in pool order,
    so ties go to the earlier pool position. NaN scores are rejected.
    """
    if len(subset) == 0:
        raise OperatorError("empty input subset")
    if not (0.0 < alpha <= 1.0):
        raise OperatorError(f"fraction out of (0,1]: {alpha}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != subset.positions.shape:
        raise OperatorError(
            f"scores of shape {scores.shape} for a subset of {len(subset)} samples"
        )
    if np.isnan(scores).any():
        raise OperatorError("NaN in selector scores")
    keep = math.ceil(alpha * len(subset))
    return Subset(subset.positions[_top_mask(scores, keep)], subset.pool)


# ---------------------------------------------------------------------------
# Benchmark-relevance scoring and selection
# ---------------------------------------------------------------------------

def _as_dense_vector(vec, dim: int | None = None) -> np.ndarray:
    """Accept a dense array or an iterable of (index, value) pairs."""
    if isinstance(vec, np.ndarray):
        return vec.astype(np.float64, copy=False)
    pairs = list(vec)
    if pairs and np.ndim(pairs[0]) == 0:
        return np.asarray(pairs, dtype=np.float64)
    size = dim if dim is not None else (max((int(i) for i, _ in pairs), default=-1) + 1)
    out = np.zeros(size, dtype=np.float64)
    for i, v in pairs:
        out[int(i)] = float(v)
    return out


def score_mona(sparse_a, target_t) -> float:
    """Weighted-Jaccard similarity of two nonnegative sparse vectors.

    Accepts dense arrays or (index, value) pair lists. Symmetric, in [0, 1].
    Two all-zero vectors are rejected: that is a broken signal file, not a
    meaningful similarity.
    """
    a = _as_dense_vector(sparse_a)
    t = _as_dense_vector(target_t)
    size = max(a.size, t.size)
    a = np.pad(a, (0, size - a.size))
    t = np.pad(t, (0, size - t.size))
    if (a < 0).any() or (t < 0).any():
        raise OperatorError("relevance score requires nonnegative vectors")
    denom = np.maximum(a, t).sum()
    if denom == 0.0:
        raise OperatorError("relevance score undefined for two all-zero vectors")
    return float(np.minimum(a, t).sum() / denom)


def apply_mona_union(subset: Subset, signals: SignalTable, fraction: float) -> Subset:
    """Per-benchmark top-fraction by relevance, unioned across benchmarks."""
    if len(subset) == 0:
        raise OperatorError("empty input subset")
    if not signals.benchmarks:
        raise OperatorError("no benchmark targets available")
    if not (0.0 < fraction <= 1.0):
        raise OperatorError(f"fraction out of (0,1]: {fraction}")
    keep = math.ceil(fraction * len(subset))
    chosen = np.zeros(len(subset), dtype=bool)
    for col in range(len(signals.benchmarks)):
        chosen |= _top_mask(signals.relevance[:, col][subset.positions], keep)
    return Subset(subset.positions[chosen], subset.pool)


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


def _kmeans_plusplus(x: sp.csr_matrix, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on L2-normalized rows; returns dense centers."""
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = x[first].toarray().ravel()
    # rows are unit-norm, so ||x - c||^2 = 1 + ||c||^2 - 2 x.c
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


def _assign(x: sp.csr_matrix, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels and squared distances for unit-norm rows."""
    sims = x @ centers.T
    d2 = 1.0 + (centers**2).sum(axis=1)[None, :] - 2.0 * sims
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(x.shape[0]), labels]


def minibatch_kmeans(x: sp.csr_matrix, n_clusters: int, seed: int) -> np.ndarray:
    """Cluster unit-norm CSR rows; returns per-row labels.

    k-means++ seeding, KMEANS_EPOCHS passes of shuffled minibatches of at
    most KMEANS_BATCH_SIZE rows with count-weighted center updates, and a
    final repair pass that re-seeds any empty cluster to the point farthest
    from its assigned center.
    """
    n = x.shape[0]
    _check_cluster_count(n_clusters, n)
    rng = np.random.default_rng(seed)
    batch = min(KMEANS_BATCH_SIZE, n)
    centers = _kmeans_plusplus(x, n_clusters, rng)
    counts = np.zeros(n_clusters, dtype=np.int64)
    for _ in range(KMEANS_EPOCHS):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            m = x[order[start:start + batch]]
            labels, _ = _assign(m, centers)
            present, sizes = np.unique(labels, return_counts=True)
            # Row j of the indicator holds 1/size at the batch positions of
            # cluster present[j], in batch order: its product with the batch
            # adds (1/size)*x over the members in the order .mean(axis=0)
            # does, so the means are bit for bit the per-cluster ones.
            indicator = sp.csr_matrix(
                (np.repeat(1.0 / sizes, sizes), np.argsort(labels, kind="stable"),
                 np.concatenate(([0], np.cumsum(sizes)))),
                shape=(present.size, m.shape[0]),
            )
            means = (indicator @ m).toarray()
            counts[present] += sizes
            eta = (sizes / counts[present])[:, None]
            centers[present] = (1.0 - eta) * centers[present] + eta * means
    labels, d2 = _assign(x, centers)
    for _ in range(n_clusters):
        present = np.bincount(labels, minlength=n_clusters) > 0
        if present.all():
            break
        empty = int(np.flatnonzero(~present)[0])
        centers[empty] = x[int(np.argmax(d2))].toarray().ravel()
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
            f"zero-norm activation vector for id {subset.pool.samples[bad].id!r}"
        )
    x = sp.csr_matrix(x.multiply(1.0 / norms[:, None]))
    labels = minibatch_kmeans(x, n_clusters, seed)
    keep_mask = semdedup_greedy_pass(x, labels, tau)
    return Subset(subset.positions[keep_mask], subset.pool)


SEMDEDUP_TILE_ROWS = 128


def semdedup_greedy_pass(
    x_normalized: sp.csr_matrix, labels: np.ndarray, tau: float
) -> np.ndarray:
    """Greedy near-duplicate drop for a fixed clustering; returns a keep mask.

    Rows are scanned in their given order (pool order); a row survives iff
    its max cosine to the rows already kept in its cluster stays below tau,
    with tau in (0, 1].

    Each cluster is scanned in tiles of SEMDEDUP_TILE_ROWS rows: one sparse
    product of the rows kept so far against the tile and one for the tile's
    own Gram block, both thresholded at tau, then a scan in pool order with
    one boolean AND per row. scipy sums each entry of a CSR product over the
    shared nonzeros in the stored order of the left row, and both products
    put the earlier row on the left, so every cosine is bit for bit the one
    a product of that single pair gives.
    """
    n = x_normalized.shape[0]
    keep_mask = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        kept = members[:0]
        for start in range(0, members.size, SEMDEDUP_TILE_ROWS):
            tile = members[start:start + SEMDEDUP_TILE_ROWS]
            rows = x_normalized[tile]
            dropped = np.zeros(tile.size, dtype=bool)
            if kept.size:
                sims = x_normalized[kept] @ rows.T
                dropped[sims.indices[sims.data >= tau]] = True
            # close[r, s]: cosine of tile rows s and r, summed in row s's order
            close = (rows @ rows.T).toarray().T >= tau
            keep = np.zeros(tile.size, dtype=bool)
            for r in np.flatnonzero(~dropped):
                keep[r] = not (close[r] & keep).any()
            kept = np.concatenate((kept, tile[keep]))
        keep_mask[kept] = True
    return keep_mask


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
    return Subset(np.union1d(current.positions, source.positions), current.pool)


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
    without it is an error.
    """
    op = spec.operator
    if op in SELECTOR_COLUMNS:
        scores = signals.column(SELECTOR_COLUMNS[op])[subset.positions]
        return apply_top_fraction(subset, scores, float(spec.param("fraction")))
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
