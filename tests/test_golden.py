"""Byte-for-byte pins on fallback-mode ledgers.

Each file under ``tests/golden/`` is the ledger of one command on the 200x64
synthetic pool with the planted-quadratic oracle spec. The test reruns the
command and compares the bytes, so any change to sampling, ranking, the GP,
the operators or the ledger format shows here. The two search seeds were
chosen because their ledgers evaluate a SemDedup step and a mix step and
reseed the anchor.

The search runs also cover the run's prefix memo: a test reruns them,
counts the operator steps applied, and checks that the memo spared some.

``semdedup_grid.npz`` pins SemDedup's k-means labels and keep masks over a
grid of pools, cluster counts, thresholds and seeds; ``semdedup_grid.py``
wrote it and recomputes it here. ``manifests/`` pins the manifest and
pool-digest bytes of a pool of awkward text; ``manifests.py`` wrote it and
recomputes it here. ``reports/`` pins the five CSV tables of ``report`` over
the three golden ledgers, named by their paths from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from recipesearch import controller, recipe
from recipesearch.cli import main
from recipesearch.recipe import ExecutionError

GOLDEN = Path(__file__).parent / "golden"

PLANTED_SPEC = {
    "family": "planted_quadratic", "offset": 1.0,
    "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.5},
}

CASES = {
    "run_seed4": ["run", "--budget", "8", "--master-seed", "4"],
    "run_seed6": ["run", "--budget", "8", "--master-seed", "6"],
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


def test_assistant_variables_leave_a_fallback_run_unchanged(synth_files, tmp_path, monkeypatch):
    """Role commands come from ``--assistant-cmd`` alone; exported variables change no byte."""
    monkeypatch.setenv("RECIPESEARCH_ASSISTANT_CMD", "no-such-assistant-command")
    monkeypatch.setenv("RECIPESEARCH_ASSISTANT_CMD_PROPOSER", "no-such-assistant-command")
    ledger = write_ledger("run_seed4", synth_files, tmp_path)
    assert ledger.read_bytes() == (GOLDEN / "run_seed4.jsonl").read_bytes()
    header = json.loads(ledger.read_text().splitlines()[0])
    assert header["config"]["assistant_mode"] == "fallback"


@pytest.mark.parametrize("name", ["run_seed4", "run_seed6"])
def test_golden_runs_cover_semdedup_mix_and_reseed(name):
    events = [json.loads(line) for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines()]
    operators = {
        step["operator"]
        for e in events if e["type"] == "eval"
        for step in e["recipe"]["steps"]
    }
    assert {"semdedup", "mix"} <= operators
    assert any(e["type"] == "reseed" for e in events)


@pytest.mark.parametrize("name", ["run_seed4", "run_seed6"])
def test_golden_runs_take_prefixes_from_the_memo(synth_files, tmp_path, monkeypatch, caplog,
                                                name):
    """The golden ledgers pin the memoized path: fewer steps run than recipes reach,
    and a state is computed for each evaluation that misses the cache, no more.

    The run's debug line reports the same step and state counts.
    """
    caplog.set_level(logging.DEBUG, logger="recipesearch.controller")
    applied = []
    reached = []
    computed = []
    real_apply, real_materialize = recipe.apply_step, controller._Runtime.materialize
    real_compute_state = controller.compute_state

    def counting_compute_state(*args):
        computed.append(1)
        return real_compute_state(*args)

    def counting_apply(*args, **kwargs):
        applied.append(1)
        return real_apply(*args, **kwargs)

    def counting_materialize(self, candidate_recipe):
        steps = len(candidate_recipe)
        try:
            return real_materialize(self, candidate_recipe)
        except ExecutionError as exc:
            steps = exc.step_index
            raise
        finally:
            reached.append(steps)

    monkeypatch.setattr(recipe, "apply_step", counting_apply)
    monkeypatch.setattr(controller._Runtime, "materialize", counting_materialize)
    monkeypatch.setattr(controller, "compute_state", counting_compute_state)
    ledger = write_ledger(name, synth_files, tmp_path)
    assert ledger.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()
    assert 0 < len(applied) < sum(reached)
    evals = [e for e in map(json.loads, ledger.read_text().splitlines()) if e["type"] == "eval"]
    # a cache hit takes the state stored with the score
    assert 0 < len(computed) == sum(not e["cache_hit"] for e in evals)
    [line] = [r.getMessage() for r in caplog.records if "prefix memo" in r.getMessage()]
    assert line == (
        f"materializations {len(reached)}, operator steps executed {len(applied)}, "
        f"steps served from the prefix memo {sum(reached) - len(applied)}, "
        f"states computed {len(computed)}"
    )


def test_report_tables_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN.parent.parent)  # the tables name each ledger as given
    ledgers = [f"tests/golden/{name}.jsonl" for name in CASES]
    assert main(["report", *ledgers, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    expected = sorted(p.name for p in (GOLDEN / "reports").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "reports" / name).read_bytes(), name


def _load_golden_module(name: str):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_semdedup_grid_matches_golden():
    grid = _load_golden_module("semdedup_grid")
    with np.load(grid.FIXTURE) as golden:
        expected = dict(golden)
    actual = grid.compute_grid()
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert actual[key].shape == expected[key].shape, key
        assert np.array_equal(actual[key], expected[key]), key


def test_manifests_match_golden():
    manifests = _load_golden_module("manifests")
    actual = manifests.compute_files()
    assert sorted(actual) == sorted(p.name for p in manifests.FIXTURE_DIR.iterdir())
    for name, data in sorted(actual.items()):
        assert data == (manifests.FIXTURE_DIR / name).read_bytes(), name
