from __future__ import annotations

import json
import tempfile

import pytest

import numpy as np

from recipesearch.operators import Subset
from recipesearch.pool import load_pool, load_signals
from recipesearch.synthetic import write_synthetic_dataset


def make_synthetic_pool(n_samples=200, sae_dim=64, seed=0):
    """A synthetic pool and its signals, loaded through the real ingestion path.

    The files go to a temporary directory that is removed once they are loaded.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic_dataset(tmp, n_samples, sae_dim, seed=seed)
        pool = load_pool(paths[0])
        return pool, load_signals(paths[1], paths[2], pool)


def subset_from_ids(ids, pool):
    """The subset of ``pool`` holding exactly these ids, in any order."""
    return Subset(np.array(sorted(pool.index[i] for i in ids), dtype=np.int64), pool)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


TINY_POOL_ROWS = [
    {"id": "a", "instruction": "solve x", "response": "x = 1", "source": "s1"},
    {"id": "b", "instruction": "a a", "response": "a a", "source": "s1"},
    {"id": "c", "instruction": "a b", "response": "c d", "source": "s2"},
    {"id": "d", "instruction": "x y", "response": "z w v", "source": "s2"},
]

TINY_SIGNAL_ROWS = [
    {"id": "a", "ifd": 0.9, "varentropy": 0.5, "ao": 2.0, "sparse": [[0, 1.0]]},
    {"id": "b", "ifd": 0.4, "varentropy": 1.5, "ao": 1.0, "sparse": [[0, 0.5], [1, 0.5]]},
    {"id": "c", "ifd": 0.7, "varentropy": 0.25, "ao": 3.0, "sparse": [[2, 1.0], [3, 1.0]]},
    {"id": "d", "ifd": 0.2, "varentropy": 1.0, "ao": 4.0, "sparse": [[4, 2.0]]},
]

TINY_TARGETS = {
    "sae_dim": 8,
    "benchmarks": {
        "t1": [[0, 0.5], [1, 0.5]],
        "t2": [[2, 1.0], [3, 1.0]],
    },
}


@pytest.fixture()
def tiny_files(tmp_path):
    pool_path = tmp_path / "pool.jsonl"
    signals_path = tmp_path / "signals.jsonl"
    targets_path = tmp_path / "targets.json"
    write_jsonl(pool_path, TINY_POOL_ROWS)
    write_jsonl(signals_path, TINY_SIGNAL_ROWS)
    targets_path.write_text(json.dumps(TINY_TARGETS))
    return str(pool_path), str(signals_path), str(targets_path)


@pytest.fixture()
def tiny(tiny_files):
    pool = load_pool(tiny_files[0])
    signals = load_signals(tiny_files[1], tiny_files[2], pool)
    return pool, signals


@pytest.fixture()
def announce(request):
    """Write a line past pytest's capture, onto the live terminal report."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _announce(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return _announce


@pytest.fixture(scope="session")
def pools_a_b():
    """Two synthetic pools of 120 samples, A (seed 7) and B (seed 8), each with its signals."""
    return make_synthetic_pool(n_samples=120, seed=7), make_synthetic_pool(n_samples=120, seed=8)


@pytest.fixture(scope="session")
def synth_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth200")
    return write_synthetic_dataset(str(out), n_samples=200, sae_dim=64, seed=11)


@pytest.fixture(scope="session")
def synth(synth_files):
    pool = load_pool(synth_files[0])
    signals = load_signals(synth_files[1], synth_files[2], pool)
    return pool, signals
