"""Deterministic synthetic pools for desk-scale verification.

Real pools come with externally computed signal files; these generators
produce structurally identical pool/signals/targets files from a seed so the
whole stack (ingestion included) can be exercised without any model in the
loop.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from .pool import CanonicalPool, SignalTable, load_pool, load_signals

_VOCAB = (
    "solve compute explain graph prove integer matrix prime sum list sort the a an "
    "of for with find count measure path tree node edge query answer step value"
).split()

_SOURCES = ("hermes", "tulu", "alpaca")


def write_synthetic_dataset(
    out_dir: str,
    n_samples: int = 200,
    sae_dim: int = 64,
    benchmarks: tuple[str, ...] = ("gsm8k", "bbh"),
    seed: int = 0,
) -> tuple[str, str, str]:
    """Write pool.jsonl, signals.jsonl and targets.json; returns their paths.

    Instructions and responses are short random word strings (so token counts
    and entropies vary), scalar signals are positive lognormals, and every
    sample activates two to six sparse features.
    """
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pool_path = out / "pool.jsonl"
    signals_path = out / "signals.jsonl"
    targets_path = out / "targets.json"

    with open(pool_path, "w", encoding="utf-8") as pf, open(
        signals_path, "w", encoding="utf-8"
    ) as sf:
        for i in range(n_samples):
            n_inst = int(rng.integers(3, 12))
            n_resp = int(rng.integers(2, 30))
            words_i = [_VOCAB[int(j)] for j in rng.integers(0, len(_VOCAB), n_inst)]
            words_r = [_VOCAB[int(j)] for j in rng.integers(0, len(_VOCAB), n_resp)]
            rec = {
                "id": f"s{i:05d}",
                "instruction": " ".join(words_i),
                "response": " ".join(words_r),
                "source": _SOURCES[int(rng.integers(0, len(_SOURCES)))],
            }
            pf.write(json.dumps(rec, sort_keys=True) + "\n")
            n_feat = int(rng.integers(2, 7))
            feats = np.sort(rng.choice(sae_dim, size=n_feat, replace=False))
            values = np.round(rng.uniform(0.1, 2.0, size=n_feat), 4)
            sig = {
                "id": rec["id"],
                "ifd": round(float(rng.lognormal(0.0, 0.4)), 4),
                "varentropy": round(float(rng.lognormal(-0.5, 0.5)), 4),
                "ao": round(float(rng.uniform(0.5, 6.0)), 4),
                "sparse": [[int(f), float(v)] for f, v in zip(feats, values)],
            }
            sf.write(json.dumps(sig, sort_keys=True) + "\n")

    bench_doc = {}
    for name in benchmarks:
        n_feat = int(rng.integers(4, max(5, sae_dim // 4)))
        feats = np.sort(rng.choice(sae_dim, size=n_feat, replace=False))
        values = np.round(rng.uniform(0.2, 1.5, size=n_feat), 4)
        bench_doc[name] = [[int(f), float(v)] for f, v in zip(feats, values)]
    with open(targets_path, "w", encoding="utf-8") as tf:
        json.dump({"sae_dim": sae_dim, "benchmarks": bench_doc}, tf, sort_keys=True)

    return str(pool_path), str(signals_path), str(targets_path)


def make_synthetic_pool(
    n_samples: int = 200,
    sae_dim: int = 64,
    benchmarks: tuple[str, ...] = ("gsm8k", "bbh"),
    seed: int = 0,
) -> tuple[CanonicalPool, SignalTable]:
    """Generate and load a synthetic pool through the real ingestion path.

    The files go to a temporary directory that is removed once they are loaded.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic_dataset(tmp, n_samples, sae_dim, benchmarks, seed)
        pool = load_pool(paths[0])
        return pool, load_signals(paths[1], paths[2], pool)
