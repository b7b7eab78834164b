"""Output checks computed apart from the program, from the input files.

Every check appends a message to a problem list instead of raising, so one
run reports all of them. None compares against a stored copy of earlier
output: pool records, token counts, IFD and relevance come from the pool,
signals and targets files; scores come from the benchmark's own scorer.
"""

from __future__ import annotations

import inspect
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

import recipesearch.operators as operators
from scorer import score_manifest
from tracing import LAYERS

RECORD_FIELDS = ("id", "instruction", "response", "source")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


class Reference:
    """The inputs of one dataset, read with the standard library and numpy."""

    def __init__(self, data_dir: Path):
        self.data_dir = data_dir
        lines = [
            line for line in (data_dir / "pool.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        self.records = [json.loads(line) for line in lines]
        self.line_pos = {line: i for i, line in enumerate(lines)}
        self.id_pos = {rec["id"]: i for i, rec in enumerate(self.records)}
        self.tokens = np.array(
            [len(r["instruction"].split()) + len(r["response"].split()) for r in self.records],
            dtype=np.float64,
        )

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _signals(self) -> tuple[np.ndarray, np.ndarray]:
        """IFD column and per-benchmark weighted-Jaccard relevance, pool order."""
        n = len(self)
        ifd = np.empty(n)
        rows, feats, vals = [], [], []
        with open(self.data_dir / "signals.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                pos = self.id_pos[rec["id"]]
                ifd[pos] = rec["ifd"]
                for f, v in rec["sparse"]:
                    rows.append(pos)
                    feats.append(f)
                    vals.append(v)
        doc = json.loads((self.data_dir / "targets.json").read_text(encoding="utf-8"))
        rows_a, feats_a, vals_a = np.array(rows), np.array(feats), np.array(vals, dtype=float)
        row_sums = np.bincount(rows_a, vals_a, minlength=n)
        columns = []
        for name in sorted(doc["benchmarks"]):
            target = np.zeros(doc["sae_dim"])
            for f, v in doc["benchmarks"][name]:
                target[f] = v
            mins = np.bincount(rows_a, np.minimum(vals_a, target[feats_a]), minlength=n)
            denom = row_sums + target.sum() - mins
            columns.append(np.divide(mins, denom, out=np.zeros(n), where=denom > 0))
        return ifd, np.column_stack(columns)

    @property
    def ifd(self) -> np.ndarray:
        return self._signals[0]

    @property
    def relevance(self) -> np.ndarray:
        return self._signals[1]


def read_manifest(path: Path, ref: Reference, problems: list[str]) -> tuple[dict, np.ndarray]:
    """Header and pool positions of a manifest, checked against the pool.

    Ids must be distinct pool ids in pool order, the record count must equal
    the header's ``subset_size``, and every record must equal its pool.jsonl
    record on the documented fields.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    positions = []
    for line in lines[1:]:
        pos = ref.line_pos.get(line)
        if pos is None:
            rec = json.loads(line)
            pos = ref.id_pos.get(rec.get("id"))
            if pos is None or any(rec.get(k) != ref.records[pos][k] for k in RECORD_FIELDS):
                problems.append(f"{path}: record {rec.get('id')!r} does not match pool.jsonl")
                continue
        positions.append(pos)
    pos_arr = np.array(positions, dtype=np.int64)
    if len(lines) - 1 != header.get("subset_size"):
        problems.append(
            f"{path}: {len(lines) - 1} records, header says {header.get('subset_size')}"
        )
    if pos_arr.size > 1 and (np.diff(pos_arr) <= 0).any():
        problems.append(f"{path}: ids are not distinct or not in pool order")
    return header, pos_arr


def read_ledger(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_scorer_log(path: Path) -> list[tuple[float, Path]]:
    """(monotonic start, manifest path) of every scorer call, in call order."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        start, manifest = line.split(" ", 1)
        out.append((float(start), Path(manifest)))
    return out


def check_command_run(out_dir: Path, ref: Reference, problems: list[str]) -> list[dict]:
    """Check a CLI run that used the benchmark's scorer; returns its eval events.

    Each scorer call is matched, in order, to the next eval that was not
    served from the cache. Its manifest must pass :func:`read_manifest`, fit
    the eval's step and size, and score exactly the ledger's score. A cache
    hit must repeat the score of an earlier eval with the same subset hash.
    """
    evals = [e for e in read_ledger(out_dir / "ledger.jsonl") if e.get("type") == "eval"]
    calls = read_scorer_log(out_dir / "scorer.log")
    fresh = [e for e in evals if not e["cache_hit"]]
    if len(calls) != len(fresh):
        problems.append(f"{out_dir}: {len(calls)} scorer calls for {len(fresh)} fresh evals")
    by_hash: dict[str, float] = {}
    for event in evals:
        if event["cache_hit"]:
            if by_hash.get(event["subset_hash"]) != event["score"]:
                problems.append(f"{out_dir}: cache hit at step {event['step']} "
                                "does not repeat an earlier score")
            continue
        by_hash[event["subset_hash"]] = event["score"]
    for event, (_, manifest) in zip(fresh, calls):
        data = manifest.read_bytes()
        if score_manifest(data, len(ref)) != event["score"]:
            problems.append(f"{manifest}: ledger score {event['score']!r} differs from "
                            "the scorer's score of the manifest")
        header, positions = read_manifest(manifest, ref, problems)
        if header.get("step") != event["step"] or positions.size != event["subset_size"]:
            problems.append(f"{manifest}: header or size does not fit step {event['step']}")
    return evals


def bound_arguments(fn, args, kwargs) -> list:
    """Call arguments of ``fn`` in parameter order, keywords resolved."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return list(bound.arguments.values())


def check_operator_outputs(tracer, problems: list[str]) -> None:
    """Every traced operator output is a subset of its input (mix: of the union)."""
    for layer in LAYERS:
        if not layer.startswith("operators.apply_"):
            continue
        fn = getattr(operators, LAYERS[layer][1])
        for args, kwargs, result in tracer.noted(layer):
            bound = bound_arguments(fn, args, kwargs)
            allowed = bound[0].positions
            if layer == "operators.apply_mix":
                allowed = np.union1d(allowed, bound[1].positions)
            if not np.isin(result.positions, allowed).all():
                problems.append(f"{layer}: output is not a subset of its input")


def check_semdedup(tracer, problems: list[str]) -> int:
    """Every traced ``apply_semdedup`` output against a dense greedy re-run.

    The labels are the ones the call's own ``minibatch_kmeans`` returned.
    Within each cluster, in pool order, a sample is kept iff its max cosine
    to the already-kept members is below ``tau``; a decision may differ from
    the program's only where that cosine is within 1e-9 of ``tau``. Returns
    the number of calls checked.
    """
    labels_of = {
        tracer.spans[index][3]: value[2]
        for index, value in tracer.notes
        if tracer.spans[index][0] == "operators.minibatch_kmeans"
    }
    calls = [
        (index, value) for index, value in tracer.notes
        if tracer.spans[index][0] == "operators.apply_semdedup"
    ]
    for index, (args, kwargs, result) in calls:
        subset, signals, _, tau, _ = bound_arguments(operators.apply_semdedup, args, kwargs)
        labels = labels_of.get(index)
        if labels is None:
            problems.append("apply_semdedup: no minibatch_kmeans call inside it")
            continue
        x = signals.activations[subset.positions].toarray()
        x /= np.linalg.norm(x, axis=1)[:, None]
        kept = np.isin(subset.positions, result.positions)
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c)
            gram = x[members] @ x[members].T
            kept_so_far: list[int] = []
            for j, i in enumerate(members):
                cos = gram[j, kept_so_far].max() if kept_so_far else -math.inf
                if (cos < tau) != kept[i] and abs(cos - tau) > 1e-9:
                    problems.append(
                        f"apply_semdedup: sample {subset.positions[i]} kept={bool(kept[i])} "
                        f"but max cosine {cos!r} vs tau {tau!r}"
                    )
                    break
                if kept[i]:
                    kept_so_far.append(j)
    return len(calls)
