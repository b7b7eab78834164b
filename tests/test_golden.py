"""Byte-for-byte pins on fallback-mode ledgers.

Each file under ``tests/golden/`` is the ledger of one command on the 200x64
synthetic pool with the planted-quadratic oracle spec. The test reruns the
command and compares the bytes, so any change to sampling, ranking, the GP,
the operators or the ledger format shows here. The two search seeds were
chosen because their ledgers evaluate a SemDedup step and a mix step and
reseed the anchor.

``semdedup_grid.npz`` pins SemDedup's k-means labels and keep masks over a
grid of pools, cluster counts, thresholds and seeds; ``semdedup_grid.py``
wrote it and recomputes it here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from recipesearch.cli import main

GOLDEN = Path(__file__).parent / "golden"

PLANTED_SPEC = {
    "family": "planted_quadratic", "offset": 1.0,
    "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.5},
}

CASES = {
    "run_seed4": ["run", "--budget", "8", "--master-seed", "4"],
    "run_seed5": ["run", "--budget", "8", "--master-seed", "5"],
    "baseline_random_recipe": ["baseline", "--suite", "random_recipe", "--budget", "5"],
}


def write_ledger(name: str, synth_files, work_dir: Path) -> Path:
    """Run one golden case in ``work_dir`` and return its ledger path."""
    pool, signals, targets = synth_files
    spec = work_dir / "spec.json"
    spec.write_text(json.dumps(PLANTED_SPEC))
    out_dir = work_dir / name
    argv = CASES[name] + [
        "--pool", pool, "--signals", signals, "--targets", targets,
        "--oracle-spec", str(spec), "--out-dir", str(out_dir),
    ]
    assert main(argv) == 0
    return out_dir / "ledger.jsonl"


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_matches_golden(synth_files, tmp_path, name):
    ledger = write_ledger(name, synth_files, tmp_path)
    assert ledger.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["run_seed4", "run_seed5"])
def test_golden_runs_cover_semdedup_mix_and_reseed(name):
    events = [json.loads(line) for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines()]
    operators = {
        step["operator"]
        for e in events if e["type"] == "eval"
        for step in e["recipe"]["steps"]
    }
    assert {"semdedup", "mix"} <= operators
    assert any(e["type"] == "reseed" for e in events)


def _load_grid_module():
    spec = importlib.util.spec_from_file_location("semdedup_grid", GOLDEN / "semdedup_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_semdedup_grid_matches_golden():
    grid = _load_grid_module()
    with np.load(grid.FIXTURE) as golden:
        expected = dict(golden)
    actual = grid.compute_grid()
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert actual[key].shape == expected[key].shape, key
        assert np.array_equal(actual[key], expected[key]), key
