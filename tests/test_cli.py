from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipesearch import cli, controller
from recipesearch import pool as pool_module
from recipesearch.cli import main
from recipesearch.controller import _Runtime
from recipesearch.operators import default_catalog
from recipesearch.pool import load_pool, load_signals
from recipesearch.oracle import SyntheticOracle
from recipesearch.recipe import execute_recipe, parse_recipe
from recipesearch.state import compute_state
from recipesearch.synthetic import write_synthetic_dataset

from conftest import write_jsonl

FOUR_STEP_RECIPE = {
    "steps": [
        {"operator": "ngram_topfrac", "params": {"fraction": 0.9}},
        {"operator": "mona_filter", "params": {"fraction": 0.85}},
        {"operator": "semdedup", "params": {"n_clusters": 3, "tau": 0.88, "seed": 7}},
        {"operator": "random_k", "params": {"k": 45, "seed": 0}},
    ]
}

CONSTANT_SPEC = {"family": "constant", "value": 10.0}
CANDIDATE_HEADER = "idx | mu | sigma | retain | score_mean | drift | recipe\n"
PLANTED_SPEC = {
    "family": "planted_quadratic", "offset": 1.0,
    "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.5},
}
# case -> (oracle spec document, the reason its rejection gives)
BAD_SPECS = {
    "unknown_field": ({"family": "planted_quadratic", "weights": {"retain": 1.0}},
                      "weights: unknown state field 'retain'"),
    "string_weight": ({"family": "planted_quadratic", "weights": {"retain_ratio": "x"}},
                      "weights.retain_ratio must be a number, got 'x'"),
    "huge_weight": ({"family": "planted_quadratic", "weights": {"retain_ratio": 10**400}},
                    "weights.retain_ratio is an integer too large for a float"),
    "nan_value": ({"family": "constant", "value": float("nan")},
                  "value must be finite, got nan"),
    "infinite_weight": ({"family": "planted_quadratic",
                         "weights": {"retain_ratio": float("inf")}},
                        "weights.retain_ratio must be finite, got inf"),
    "array_spec": ([{"family": "constant", "value": 1.0}], "oracle spec must be a JSON object"),
    "weights_not_object": ({"family": "planted_quadratic", "weights": [["retain_ratio", 1.0]]},
                           "weights must be an object of state field -> number"),
    "negative_noise_seed": ({"family": "constant", "noise_seed": -1},
                            "noise_seed must be a nonnegative integer, got -1"),
}


def data_args(synth_files):
    pool, signals, targets = synth_files
    return ["--pool", pool, "--signals", signals, "--targets", targets]


def write_spec(tmp_path, spec) -> str:
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(spec))
    return str(path)


def ledger_lines(path):
    return [json.loads(ln) for ln in Path(path).read_text().splitlines()]


class TestIngestCheck:
    def test_ok(self, synth_files, capsys):
        assert main(["ingest-check"] + data_args(synth_files)) == 0
        out = capsys.readouterr().out
        assert "pool: 200 samples" in out
        assert "sae_dim 64" in out

    def test_missing_signals_file(self, synth_files, capsys):
        args = data_args(synth_files)
        args[3] = "/no/such/file.jsonl"
        assert main(["ingest-check"] + args) == 1
        assert "ingest-check failed" in capsys.readouterr().err


# file -> (field edit on its second record, or on the targets object; message)
WRONG_TYPES = {
    "sparse_not_array": ("signals", {"sparse": 5}, "signals line 2: sparse must be an array"),
    "float_index": ("signals", {"sparse": [[3.7, 1.0]]},
                    "signals line 2: feature index must be a JSON integer, got 3.7"),
    "bool_index": ("signals", {"sparse": [[True, 2]]},
                   "signals line 2: feature index must be a JSON integer, got True"),
    "string_ifd": ("signals", {"ifd": "0.5"}, "signals line 2: ifd must be a JSON number"),
    "bool_varentropy": ("signals", {"varentropy": True},
                        "signals line 2: varentropy must be a JSON number"),
    "string_sae_dim": ("targets", {"sae_dim": "8.9"}, "sae_dim must be a positive integer"),
    "null_instruction": ("pool", {"instruction": None},
                         "field 'instruction' must be a JSON string, got None at line 2"),
    "empty_id": ("pool", {"id": ""}, "empty id at line 2"),
    "empty_benchmarks": ("targets", {"benchmarks": {}}, "no benchmarks defined"),
}


@pytest.mark.parametrize("command", ["ingest-check", "run", "baseline"])
@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_json_type_fails_ingestion(synth_files, tmp_path, capsys, command, case):
    which, edit, message = WRONG_TYPES[case]
    files = list(synth_files)
    index = ("pool", "signals", "targets").index(which)
    source = Path(files[index])
    files[index] = str(tmp_path / source.name)
    if which == "targets":
        Path(files[index]).write_text(json.dumps({**json.loads(source.read_text()), **edit}))
    else:
        rows = [json.loads(line) for line in source.read_text().splitlines()]
        rows[1].update(edit)
        write_jsonl(files[index], rows)
    if command == "ingest-check":
        argv, prefix = ["ingest-check", *data_args(files)], "ingest-check failed: "
    else:
        argv, prefix = run_argv(command, files, tmp_path / "out"), "ingestion failed: "
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestExec:
    def run_exec(self, synth_files, tmp_path, seeds, out_name="m.jsonl"):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(json.dumps(FOUR_STEP_RECIPE))
        out = tmp_path / out_name
        argv = (
            ["exec"] + data_args(synth_files)
            + ["--recipe", str(recipe_path), "--out", str(out)]
        )
        if seeds:
            argv += ["--seeds"] + [str(s) for s in seeds]
        code = main(argv)
        return code, out

    def test_matched_seeds_reproducible(self, synth_files, tmp_path):
        # the two stochastic steps are semdedup and random-k
        manifests = {}
        for rk_seed in (42, 256, 1024):
            code, out = self.run_exec(
                synth_files, tmp_path, [7, rk_seed], f"m{rk_seed}.jsonl"
            )
            assert code == 0
            first = out.read_bytes()
            code, out = self.run_exec(
                synth_files, tmp_path, [7, rk_seed], f"m{rk_seed}.jsonl"
            )
            assert code == 0
            assert out.read_bytes() == first  # byte-identical on repetition
            manifests[rk_seed] = first
        assert len(set(manifests.values())) == 3  # distinct seeds, distinct subsets

    def test_manifest_matches_direct_execution(self, synth_files, tmp_path):
        code, out = self.run_exec(synth_files, tmp_path, [7, 42])
        assert code == 0
        pool = load_pool(synth_files[0])
        signals = load_signals(synth_files[1], synth_files[2], pool)
        catalog = default_catalog(len(pool))
        recipe = parse_recipe(json.dumps(FOUR_STEP_RECIPE), catalog)
        from recipesearch.cli import _apply_seed_overrides

        recipe = _apply_seed_overrides(recipe, [7, 42], catalog)
        expected = execute_recipe(recipe, signals)
        lines = ledger_lines(out)
        assert [r["id"] for r in lines[1:]] == expected.ids()

    def test_state_vector_emitted(self, synth_files, tmp_path):
        code, out = self.run_exec(synth_files, tmp_path, [7, 42])
        state = json.loads((Path(str(out) + ".state.json")).read_text())
        assert set(state) == {
            "score_mean", "score_std", "score_per_task", "retain_ratio",
            "token_ratio", "distribution_drift", "mean_ifd", "mean_varentropy",
        }

    def test_deterministic_recipe_warns_on_seeds(self, synth_files, tmp_path):
        recipe_path = tmp_path / "det.json"
        recipe_path.write_text(json.dumps({
            "steps": [{"operator": "ifd_topfrac", "params": {"fraction": 0.5}}]
        }))
        out = tmp_path / "det.jsonl"
        # a child process, so the warning meets the CLI's own logging set-up
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "recipesearch.cli", "exec", *data_args(synth_files),
             "--recipe", str(recipe_path), "--out", str(out), "--seeds", "42"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: recipe has no stochastic steps; seed overrides ignored"
        ]

    def test_seed_count_mismatch_names_steps(self, synth_files, tmp_path, capsys):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(json.dumps(FOUR_STEP_RECIPE))
        code = main(
            ["exec"] + data_args(synth_files)
            + ["--recipe", str(recipe_path), "--out", str(tmp_path / "x.jsonl"),
               "--seeds", "42"]
        )
        assert code == 1
        msg = capsys.readouterr().err
        assert "step 3 (semdedup)" in msg and "step 4 (random_k)" in msg


    def test_state_out_creates_its_directory(self, synth_files, tmp_path):
        state_out = tmp_path / "new" / "dir" / "state.json"
        argv = exec_argv(synth_files, tmp_path, IFD_HALF, "--state-out", str(state_out))
        assert main(argv) == 0
        assert "retain_ratio" in json.loads(state_out.read_text())

    @pytest.mark.parametrize("k", ["5.0", "abc"])
    def test_string_integer_param_rejected(self, synth_files, tmp_path, capsys, k):
        recipe_path = tmp_path / "bad.json"
        recipe_path.write_text(json.dumps({
            "steps": [{"operator": "random_k", "params": {"k": k}}]
        }))
        code = main(
            ["exec"] + data_args(synth_files)
            + ["--recipe", str(recipe_path), "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "recipe rejected:" in err and "k must be an integer" in err

    def test_missing_recipe_file_one_line_exit_1(self, synth_files, tmp_path, capsys):
        missing = tmp_path / "nosuch.json"
        code = main(["exec"] + data_args(synth_files)
                    + ["--recipe", str(missing), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ingestion failed: recipe {missing}: ")


def run_argv(command, synth_files, out_dir, *extra):
    argv = [command] + data_args(synth_files) + ["--out-dir", str(out_dir), *extra]
    if command == "baseline":
        argv += ["--suite", "random_recipe"]
    return argv


class TestLedgerLifecycle:
    @pytest.mark.parametrize("command", ["run", "baseline"])
    @pytest.mark.parametrize("spec", sorted(BAD_SPECS))
    def test_bad_oracle_spec_rejected_before_ledger(
        self, synth_files, tmp_path, capsys, command, spec
    ):
        out_dir = tmp_path / "out"
        doc, reason = BAD_SPECS[spec]
        argv = run_argv(command, synth_files, out_dir,
                        "--oracle-spec", write_spec(tmp_path, doc))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"oracle spec rejected: {reason}\n"
        assert not (out_dir / "ledger.jsonl").exists()

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_unexpected_error_closes_ledger_then_raises(
        self, synth_files, tmp_path, monkeypatch, command
    ):
        def broken(self, request, state):
            raise RuntimeError("boom")

        monkeypatch.setattr(SyntheticOracle, "evaluate", broken)
        out_dir = tmp_path / "out"
        with pytest.raises(RuntimeError, match="boom"):
            main(run_argv(command, synth_files, out_dir, "--budget", "5"))
        events = ledger_lines(out_dir / "ledger.jsonl")
        assert events[0]["type"] == "header"
        assert events[-1] == {"type": "abort", "error": "RuntimeError: boom"}

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--l-max", "0"]),
        ("baseline", ["--l-max", "0"]),
        ("baseline", ["--budget", "0"]),
        ("run", ["--assistant-cmd", "summarizer"]),
        ("run", ["--assistant-cmd", "propser=cmd"]),
        ("run", ["--assistant-cmd", "ranker= "]),
        ("run", ["--assistant-cmd", "ranker=cmd 'unclosed"]),
        ("run", ["--random-select", "--assistant-cmd", "ranker=cmd"]),
        ("run", ["--oracle", "command"]),
        ("baseline", ["--oracle", "command"]),
        ("run", ["--master-seed", "-1"]),
        ("baseline", ["--master-seed", "-1"]),
    ])
    def test_bad_config_rejected_before_ledger(
        self, synth_files, tmp_path, capsys, monkeypatch, command, flags
    ):
        def no_ingestion(path):
            raise AssertionError("a setting check ran after ingestion")

        monkeypatch.setattr(cli, "load_pool", no_ingestion)
        out_dir = tmp_path / "out"
        assert main(run_argv(command, synth_files, out_dir, *flags)) == 2
        assert "config rejected:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_manifest_write_failure_ends_ledger_with_output_failed(
        self, synth_files, tmp_path, capsys, command
    ):
        out_dir = tmp_path / "out"
        manifest = out_dir / "manifests" / "manifest_step001.jsonl"
        manifest.mkdir(parents=True)
        argv = run_argv(command, synth_files, out_dir,
                        *printing_scorer(tmp_path, '{"score": 1.0}'))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"output failed: {manifest}: "), err
        assert "Traceback" not in err
        events = ledger_lines(out_dir / "ledger.jsonl")
        assert events[0]["type"] == "header"
        assert events[-1] == {"type": "abort", "error": err.strip()}

    @pytest.mark.parametrize("command", ["run", "baseline"])
    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_oracle_timeout_rejected_before_ledger(
        self, synth_files, tmp_path, capsys, command, timeout
    ):
        out_dir = tmp_path / "out"
        argv = run_argv(command, synth_files, out_dir, "--oracle", "command",
                        "--oracle-timeout", timeout, "--oracle-cmd", sys.executable)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config rejected: --oracle-timeout must be a finite number > 0" in err
        assert not (out_dir / "ledger.jsonl").exists()

    def test_oracle_timeout_reaches_the_command(self, synth_files, tmp_path):
        stub = tmp_path / "slow_oracle.py"
        stub.write_text("import time\ntime.sleep(30)\nprint('{\"score\": 1}')\n")
        out_dir = tmp_path / "out"
        argv = run_argv("run", synth_files, out_dir, "--oracle", "command",
                        "--oracle-timeout", "0.2", "--oracle-cmd", sys.executable, str(stub))
        assert main(argv) == 1
        events = ledger_lines(out_dir / "ledger.jsonl")
        assert events[-1]["type"] == "abort"
        assert "timed out after 0.2s" in events[-1]["error"]

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_pool_without_activations_aborts_after_draw_cap(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # No sample carries activations, so every random recipe fails its
        # state summary; the draws must stop at the cap, not run forever.
        files = write_synthetic_dataset(str(tmp_path / "data"), n_samples=400,
                                        sae_dim=64, seed=11)
        rows = [json.loads(line) for line in Path(files[1]).read_text().splitlines()]
        write_jsonl(files[1], [dict(row, sparse=[]) for row in rows])
        calls = []
        original = _Runtime.try_materialize

        def counted(self, recipe):
            calls.append(1)
            assert len(calls) <= 5000, "random draws are not capped"
            return original(self, recipe)

        monkeypatch.setattr(_Runtime, "try_materialize", counted)
        out_dir = tmp_path / "out"
        assert main(run_argv(command, files, out_dir, "--budget", "5")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "after 500 draws" in err[0]
        assert ledger_lines(out_dir / "ledger.jsonl")[-1]["type"] == "abort"

    def test_run_and_baseline_eval_events_share_keys(self, synth_files, tmp_path):
        spec = write_spec(tmp_path, PLANTED_SPEC)
        keys = set()
        for command in ("run", "baseline"):
            out_dir = tmp_path / command
            assert main(run_argv(command, synth_files, out_dir,
                                 "--budget", "5", "--oracle-spec", spec)) == 0
            evals = [e for e in ledger_lines(out_dir / "ledger.jsonl")
                     if e["type"] == "eval"]
            keys |= {frozenset(e) for e in evals}
        assert len(keys) == 1


class TestRun:
    def test_constant_run_structure(self, synth_files, tmp_path):
        out_dir = tmp_path / "run"
        code = main(
            ["run"] + data_args(synth_files)
            + ["--out-dir", str(out_dir), "--budget", "15", "--master-seed", "3",
               "--oracle-spec", write_spec(tmp_path, CONSTANT_SPEC)]
        )
        assert code == 0
        events = ledger_lines(out_dir / "ledger.jsonl")
        assert events[0]["type"] == "header"
        assert events[0]["config"]["budget"] == 15
        evals = [e for e in events if e["type"] == "eval"]
        assert len(evals) == 15
        assert [e["step"] for e in evals] == list(range(1, 16))
        reseeds = [e["step"] for e in events if e["type"] == "reseed"]
        assert reseeds == [7, 11, 15]
        assert (out_dir / "best_recipe.json").exists()
        assert (out_dir / "best_subset.jsonl").exists()
        assert (out_dir / "catalog.json").exists()
        assert events[-1]["type"] == "result"

    def test_budget_too_small_rejected(self, synth_files, tmp_path, capsys):
        code = main(
            ["run"] + data_args(synth_files)
            + ["--out-dir", str(tmp_path / "r"), "--budget", "3"]
        )
        assert code == 2
        assert "budget must exceed warmup" in capsys.readouterr().err

    def test_missing_signals_nonzero_exit(self, synth_files, tmp_path, capsys):
        args = data_args(synth_files)
        args[3] = "/no/such/signals.jsonl"
        code = main(["run"] + args + ["--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert "ingestion failed" in capsys.readouterr().err

    def test_oracle_failure_keeps_partial_ledger(self, synth_files, tmp_path):
        import sys

        stub = tmp_path / "flaky_oracle.py"
        counter = tmp_path / "calls.txt"
        stub.write_text(
            "import pathlib, sys\n"
            f"counter = pathlib.Path({str(counter)!r})\n"
            "n = int(counter.read_text()) + 1 if counter.exists() else 1\n"
            "counter.write_text(str(n))\n"
            "if n >= 3:\n"
            "    sys.exit(1)\n"
            "print('{\"score\": %d}' % n)\n"
        )
        out_dir = tmp_path / "flaky"
        code = main(
            ["run"] + data_args(synth_files)
            + ["--out-dir", str(out_dir), "--budget", "8",
               "--oracle", "command", "--oracle-cmd", sys.executable, str(stub)]
        )
        assert code == 1
        events = ledger_lines(out_dir / "ledger.jsonl")
        evals = [e for e in events if e["type"] == "eval"]
        assert len(evals) == 2  # the two completed evaluations survived
        assert all("duration_s" in e for e in evals)
        assert events[-1]["type"] == "abort"
        assert "exited 1" in events[-1]["error"]

    def test_quoted_assistant_argument_stays_one_element(self, synth_files, tmp_path):
        script = tmp_path / "record_argv.py"
        argv_file = tmp_path / "argv.json"
        script.write_text(
            "import json, sys\n"
            "json.dump(sys.argv[2:], open(sys.argv[1], 'w'))\n"
            "print('a finding')\n"
        )
        cmd = shlex.join([sys.executable, str(script), str(argv_file)]) + " 'two words'"
        extra = ["--budget", "4", "--assistant-cmd", f"summarizer={cmd}"]
        assert main(run_argv("run", synth_files, tmp_path / "out", *extra)) == 0
        assert json.loads(argv_file.read_text()) == ["two words"]
        config = ledger_lines(tmp_path / "out" / "ledger.jsonl")[0]["config"]
        assert config["assistant_mode"] == "external"
        assert list(config["assistant_commands"]) == ["summarizer"]

    def test_ranker_prompt_states_match_compute_state(self, synth_files, tmp_path,
                                                     monkeypatch):
        # each prompt's table shows the state of every candidate, computed when read
        script = tmp_path / "rank_in_order.py"
        prompts_file = tmp_path / "prompts.jsonl"
        script.write_text(
            "import json, sys\n"
            "prompt = sys.stdin.read()\n"
            "with open(sys.argv[1], 'a') as fh:\n"
            "    fh.write(json.dumps(prompt) + '\\n')\n"
            f"rows = prompt.split({CANDIDATE_HEADER!r})[1].split('\\n\\n')[0]\n"
            "print(json.dumps({'ranking': list(range(len(rows.splitlines())))}))\n"
        )
        shown = []
        real_contexts = controller._external_contexts

        def recording(rt, anchor, guidance, candidates):
            shown.append((rt.signals, candidates))
            return real_contexts(rt, anchor, guidance, candidates)

        monkeypatch.setattr(controller, "_external_contexts", recording)
        cmd = shlex.join([sys.executable, str(script), str(prompts_file)])
        argv = run_argv("run", synth_files, tmp_path / "out", "--budget", "6",
                        "--oracle-spec", write_spec(tmp_path, PLANTED_SPEC),
                        "--assistant-cmd", f"ranker={cmd}")
        assert main(argv) == 0
        events = ledger_lines(tmp_path / "out" / "ledger.jsonl")
        assert not [e for e in events if e["type"] == "assistant_failure"]
        prompts = [json.loads(line) for line in prompts_file.read_text().splitlines()]
        assert len(prompts) == len(shown) == 3
        for prompt, (signals, candidates) in zip(prompts, shown):
            rows = prompt.split(CANDIDATE_HEADER)[1].split("\n\n")[0].splitlines()
            assert len(rows) == len(candidates) > 0
            for row, cand in zip(rows, candidates):
                state = compute_state(cand.subset, signals)
                _, _, _, retain, score_mean, drift, _ = row.split(" | ", 6)
                assert retain.strip() == f"{state.retain_ratio:.3f}"
                assert score_mean.strip() == f"{state.score_mean:.4f}"
                assert drift.strip() == f"{state.distribution_drift:.4f}"

    def test_four_assistant_flags_make_every_role_external(self, synth_files, tmp_path):
        extra = ["--budget", "4"]
        for role in ("summarizer", "proposer", "ranker", "reseeder"):
            extra += ["--assistant-cmd", f"{role}=no-such-assistant-command"]
        assert main(run_argv("run", synth_files, tmp_path / "out", *extra)) == 0
        events = ledger_lines(tmp_path / "out" / "ledger.jsonl")
        assert events[0]["config"]["assistant_mode"] == "external"
        assert sorted(events[0]["config"]["assistant_commands"]) == [
            "proposer", "ranker", "reseeder", "summarizer"]
        failed = [e["role"] for e in events if e["type"] == "assistant_failure"]
        assert failed == ["summarizer", "proposer", "ranker"]

    def test_unrunnable_assistant_command_falls_back(self, synth_files, tmp_path, capsys):
        argv = run_argv("run", synth_files, tmp_path / "out", "--budget", "4",
                        "--assistant-cmd", f"proposer={unrunnable(tmp_path)}")
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        events = ledger_lines(tmp_path / "out" / "ledger.jsonl")
        failures = [(e["role"], e["attempt"], e["error"]) for e in events
                    if e["type"] == "assistant_failure"]
        path = tmp_path / "command.sh"
        assert failures == [("proposer", 0, f"command not runnable: {path}: Permission denied")]
        assert events[-1]["type"] == "result"

    def test_assistant_output_not_utf8_falls_back(self, synth_files, tmp_path, capsys):
        cmd = shlex.join([sys.executable, str(not_utf8_script(tmp_path))])
        argv = run_argv("run", synth_files, tmp_path / "out", "--budget", "4",
                        "--assistant-cmd", f"summarizer={cmd}")
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        events = ledger_lines(tmp_path / "out" / "ledger.jsonl")
        failures = [(e["role"], e["attempt"], e["error"]) for e in events
                    if e["type"] == "assistant_failure"]
        assert failures == [("summarizer", attempt, "output is not UTF-8") for attempt in range(3)]
        assert events[-1]["type"] == "result"

    def test_fallback_runs_byte_identical(self, synth_files, tmp_path):
        spec = write_spec(tmp_path, PLANTED_SPEC)
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = main(
                ["run"] + data_args(synth_files)
                + ["--out-dir", str(out_dir), "--budget", "8",
                   "--master-seed", "17", "--oracle-spec", spec]
            )
            assert code == 0
            blobs.append((out_dir / "ledger.jsonl").read_bytes())
        assert blobs[0] == blobs[1]


class TestBaseline:
    def test_random_recipe_suite(self, synth_files, tmp_path):
        out_dir = tmp_path / "rr"
        code = main(
            ["baseline"] + data_args(synth_files)
            + ["--suite", "random_recipe", "--budget", "6",
               "--out-dir", str(out_dir), "--master-seed", "5",
               "--oracle-spec", write_spec(tmp_path, PLANTED_SPEC)]
        )
        assert code == 0
        events = ledger_lines(out_dir / "ledger.jsonl")
        assert events[0]["mode"] == "baseline:random_recipe"
        assert sum(1 for e in events if e["type"] == "eval") == 6
        assert not any(e["type"] == "reseed" for e in events)

    def test_random_recipe_deterministic(self, synth_files, tmp_path):
        spec = write_spec(tmp_path, PLANTED_SPEC)
        blobs = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            main(
                ["baseline"] + data_args(synth_files)
                + ["--suite", "random_recipe", "--budget", "5",
                   "--out-dir", str(out_dir), "--master-seed", "9",
                   "--oracle-spec", spec, "--run-id", "fixed"]
            )
            blobs.append((out_dir / "ledger.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_random_topk_suite(self, synth_files, tmp_path):
        out_dir = tmp_path / "rt"
        code = main(
            ["baseline"] + data_args(synth_files)
            + ["--suite", "random_topk", "--budget", "4", "--size", "50",
               "--out-dir", str(out_dir)]
        )
        assert code == 0
        evals = [e for e in ledger_lines(out_dir / "ledger.jsonl")
                 if e["type"] == "eval"]
        assert len(evals) == 4
        assert all(e["subset_size"] == 50 for e in evals)

    def test_single_op_suite_one_record_per_selector(self, synth_files, tmp_path):
        out_dir = tmp_path / "so"
        code = main(
            ["baseline"] + data_args(synth_files)
            + ["--suite", "single_op", "--out-dir", str(out_dir)]
        )
        assert code == 0
        evals = [e for e in ledger_lines(out_dir / "ledger.jsonl")
                 if e["type"] == "eval"]
        assert len(evals) == 6
        ops = [e["recipe"]["steps"][0]["operator"] for e in evals]
        assert sorted(ops) == sorted([
            "mona_filter", "ifd_topfrac", "varentropy_topfrac",
            "ngram_topfrac", "ao_topfrac", "semdedup",
        ])

    @pytest.mark.parametrize("suite, flag", [
        ("single_op", "--clusters"),
        ("single_op", "--fraction"),
        ("single_op", "--mona-fraction"),
        ("random_topk", "--size"),
    ])
    def test_zero_suite_argument_rejected_before_ledger(
        self, synth_files, tmp_path, capsys, suite, flag
    ):
        out_dir = tmp_path / "out"
        code = main(
            ["baseline"] + data_args(synth_files)
            + ["--suite", suite, flag, "0", "--out-dir", str(out_dir)]
        )
        assert code == 2
        assert "recipe rejected:" in capsys.readouterr().err
        assert not (out_dir / "ledger.jsonl").exists()

    def test_single_op_abort_line(self, tmp_path, capsys):
        files = write_synthetic_dataset(str(tmp_path / "data"), n_samples=400,
                                        sae_dim=64, seed=11)
        out_dir = tmp_path / "so"
        code = main(
            ["baseline"] + data_args(files)
            + ["--suite", "single_op", "--clusters", "5000", "--out-dir", str(out_dir)]
        )
        assert code == 1
        assert "baseline aborted" in capsys.readouterr().err
        last = (out_dir / "ledger.jsonl").read_text().splitlines()[-1]
        assert last == (
            '{"error": "step 1: n_clusters 5000 exceeds subset size 400", "type": "abort"}'
        )


# ---------------------------------------------------------------------------
# One failure path: documented exit code and stderr prefix, never a traceback
# ---------------------------------------------------------------------------

OVERFLOW_SPEC = {  # finite weights whose score overflows to -inf
    "family": "planted_quadratic", "weights": {"retain_ratio": 1e308},
    "targets": {"retain_ratio": 10.0},
}


def non_utf8_copy(tmp_path, source, line=2):
    """A copy of a data file whose ``line`` holds the byte 0xff inside a string."""
    lines = Path(source).read_bytes().splitlines(keepends=True)
    if len(lines) == 1:  # the targets file: one JSON document
        line = 1
    lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
    target = tmp_path / f"bad_{Path(source).name}"
    target.write_bytes(b"".join(lines))
    return str(target)


def with_file(synth_files, which, path):
    files = list(synth_files)
    files[("pool", "signals", "targets").index(which)] = path
    return files


def exec_argv(synth_files, tmp_path, recipe, *extra):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    return ["exec", *data_args(synth_files), "--recipe", str(recipe_path),
            "--out", str(tmp_path / "m.jsonl"), *extra]


def signals_with(synth_files, tmp_path, **fields):
    """The data files, with ``fields`` set on every signals line."""
    rows = [json.loads(line) for line in Path(synth_files[1]).read_text().splitlines()]
    write_jsonl(tmp_path / "edited_signals.jsonl", [dict(row, **fields) for row in rows])
    return with_file(synth_files, "signals", str(tmp_path / "edited_signals.jsonl"))


def printing_scorer(tmp_path, line):
    """Oracle flags for a command scorer that prints ``line``."""
    stub = tmp_path / "scorer.py"
    stub.write_text(f"print({line!r})\n")
    return ["--oracle", "command", "--oracle-cmd", sys.executable, str(stub)]


def not_utf8_script(tmp_path):
    """A script that reads its stdin, then prints the byte 0xff."""
    path = tmp_path / "not_utf8.py"
    path.write_text("import sys\nsys.stdin.read()\nsys.stdout.buffer.write(b'\\xff\\n')\n")
    return path


def unrunnable(tmp_path):
    """A shell script without the execute bit."""
    path = tmp_path / "command.sh"
    path.write_text("#!/bin/sh\necho '{\"score\": 1.0}'\n")
    path.chmod(0o644)
    return str(path)


def fraction_argv(op, key, value):
    """``exec`` argv builder for one ``op`` step whose ``key`` holds ``value``."""
    params = {"n_clusters": 2, "tau": 0.9, "seed": 0} if op == "semdedup" else {}
    return lambda f, t: exec_argv(f, t, {"steps": [
        {"operator": op, "params": {**params, key: value}}]})


def nan_scorer(tmp_path):
    return printing_scorer(tmp_path, '{"score": NaN}')


IFD_HALF = {"steps": [{"operator": "ifd_topfrac", "params": {"fraction": 0.5}}]}


@pytest.mark.parametrize("argv, ranks", [
    (lambda f, t: ["ingest-check", *data_args(f)], 0),
    (lambda f, t: ["baseline", *data_args(f), "--suite", "random_topk", "--budget", "2",
                   "--size", "50", "--out-dir", str(t / "out")], 0),
    (lambda f, t: exec_argv(f, t, {"steps": [{"operator": "random_k",
                                              "params": {"k": 20, "seed": 0}}]}), 0),
    (lambda f, t: exec_argv(f, t, IFD_HALF), 1),
], ids=["ingest-check", "random_topk", "exec random_k", "exec ifd_topfrac"])
def test_ranks_are_built_by_the_selectors_only(synth_files, tmp_path, monkeypatch, argv, ranks):
    calls = []
    rank = pool_module.descending_rank
    monkeypatch.setattr(pool_module, "descending_rank",
                        lambda scores: calls.append(len(scores)) or rank(scores))
    assert main(argv(synth_files, tmp_path)) == 0
    assert len(calls) == ranks


def occupied(path, kind, argv):
    """``argv``, after a ``kind`` ("file" or "dir") is put where it writes ``path``."""
    path.mkdir() if kind == "dir" else path.write_text("")
    return argv


def report_argv(tmp_path):
    write_jsonl(tmp_path / "l.jsonl", [{"type": "header", "run_id": "r"},
                                       handmade_eval(1, 1.0, ["ifd_topfrac"])])
    return ["report", str(tmp_path / "l.jsonl"), "--out-dir", str(tmp_path / "out")]

# case -> (argv from (synth_files, tmp_path), exit code, stderr prefix)
FAILURES = {
    "config": (lambda f, t: run_argv("run", f, t / "out", "--l-max", "0"),
               2, "config rejected: "),
    "config_patience": (lambda f, t: run_argv("run", f, t / "out", "-P", "0"),
                        2, "config rejected: patience must be >= 1, got 0\n"),
    "config_candidates": (lambda f, t: run_argv("run", f, t / "out", "-M", "0"),
                          2, "config rejected: candidates_per_step must be >= 1, got 0\n"),
    "run_oracle_cmd_without_command": (
        lambda f, t: run_argv("run", f, t / "out", "--oracle-cmd", "false"),
        2, "config rejected: --oracle-cmd requires --oracle command\n"),
    "baseline_oracle_cmd_without_command": (
        lambda f, t: run_argv("baseline", f, t / "out", "--oracle-cmd", "false"),
        2, "config rejected: --oracle-cmd requires --oracle command\n"),
    "run_oracle_spec_with_command": (
        lambda f, t: run_argv("run", f, t / "out", "--oracle", "command", "--oracle-cmd",
                              "false", "--oracle-spec", write_spec(t, PLANTED_SPEC)),
        2, "config rejected: --oracle-spec requires --oracle synthetic\n"),
    "baseline_oracle_spec_with_command": (
        lambda f, t: run_argv("baseline", f, t / "out", "--oracle", "command", "--oracle-cmd",
                              "false", "--oracle-spec", write_spec(t, PLANTED_SPEC)),
        2, "config rejected: --oracle-spec requires --oracle synthetic\n"),
    "ingestion_all_zero_varentropy": (
        lambda f, t: run_argv("run", signals_with(f, t, varentropy=0.0), t / "out"),
        1, "ingestion failed: all-zero varentropy column\n"),
    "ingestion": (lambda f, t: run_argv("run", with_file(f, "signals", "/no/such"), t / "out"),
                  1, "ingestion failed: "),
    "ingest_check_pool_not_utf8": (
        lambda f, t: ["ingest-check", *data_args(with_file(f, "pool", non_utf8_copy(t, f[0])))],
        1, "ingest-check failed: pool file "),
    "signals_not_utf8": (
        lambda f, t: run_argv("run", with_file(f, "signals", non_utf8_copy(t, f[1])), t / "out"),
        1, "ingestion failed: signals file "),
    "targets_not_utf8": (
        lambda f, t: run_argv("baseline", with_file(f, "targets", non_utf8_copy(t, f[2])),
                              t / "out"),
        1, "ingestion failed: targets file "),
    "oracle_spec": (lambda f, t: run_argv("run", f, t / "out", "--oracle-spec",
                                          write_spec(t, BAD_SPECS["unknown_field"][0])),
                    2, "oracle spec rejected: "),
    "exec_recipe_rejected": (
        lambda f, t: exec_argv(f, t, {"steps": [{"operator": "random_k", "params": {"k": "x"}}]}),
        1, "recipe rejected:\n  - "),
    "baseline_recipe_rejected": (
        lambda f, t: ["baseline", *data_args(f), "--suite", "single_op", "--fraction", "0",
                      "--out-dir", str(t / "out")],
        2, "recipe rejected:\n  - "),
    "seed_mismatch": (lambda f, t: exec_argv(f, t, FOUR_STEP_RECIPE, "--seeds", "42"),
                      1, "recipe rejected:\n  - 1 seed override(s) for 2 stochastic step(s)"),
    "negative_seed": (lambda f, t: exec_argv(f, t, FOUR_STEP_RECIPE, "--seeds", "7", "-1"),
                      1, "recipe rejected:\n  - step 4: random_k: seed must be nonnegative"),
    "seed_override_out_of_range": (
        lambda f, t: exec_argv(f, t, FOUR_STEP_RECIPE, "--seeds", "7", "9" * 400),
        1, "recipe rejected:\n  - step 4: random_k: seed out of range"),
    "execution_aborted": (
        lambda f, t: exec_argv(f, t, {"steps": [{"operator": "semdedup", "params": {
            "n_clusters": 5000, "tau": 0.9, "seed": 0}}]}),
        1, "execution aborted: step 1: n_clusters 5000 exceeds subset size 200"),
    "exec_state_error": (lambda f, t: exec_argv(signals_with(f, t, sparse=[]), t, IFD_HALF),
                         1, "execution aborted: no subset sample carries activation"),
    "run_score_overflow": (
        lambda f, t: run_argv("run", f, t / "out", "--oracle-spec", write_spec(t, OVERFLOW_SPEC)),
        1, "run aborted: non-finite score from the oracle: -inf"),
    "baseline_score_overflow": (
        lambda f, t: run_argv("baseline", f, t / "out",
                              "--oracle-spec", write_spec(t, OVERFLOW_SPEC)),
        1, "baseline aborted: non-finite score from the oracle: -inf"),
    "exec_fraction_overflow": (
        lambda f, t: exec_argv(f, t, {"steps": [{"operator": "ifd_topfrac",
                                                 "params": {"fraction": 10**400}}]}),
        1, "recipe rejected:\n  - step 1: ifd_topfrac: fraction out of (0,1]"),
    "exec_fraction_string": (
        fraction_argv("ifd_topfrac", "fraction", "0.5"),
        1, "recipe rejected:\n  - step 1: ifd_topfrac: fraction must be a number"),
    "exec_tau_string": (
        fraction_argv("semdedup", "tau", "0.9"),
        1, "recipe rejected:\n  - step 1: semdedup: tau must be a number"),
    "exec_mix_source_non_ascii_digit": (
        lambda f, t: exec_argv(f, t, {"steps": [{"operator": "mix",
                                                 "params": {"source": "eval:\u00b2"}}]}),
        1, "recipe rejected:\n  - step 1: mix: source must be 'incumbent' or 'eval:<t>'"),
    "exec_fraction_boolean": (
        fraction_argv("ifd_topfrac", "fraction", True),
        1, "recipe rejected:\n  - step 1: ifd_topfrac: fraction must be a number"),
    "run_oracle_cmd_not_executable": (
        lambda f, t: run_argv("run", f, t / "out", "--oracle", "command",
                              "--oracle-cmd", unrunnable(t)),
        1, "run aborted: evaluation command not runnable: "),
    "baseline_oracle_cmd_not_executable": (
        lambda f, t: run_argv("baseline", f, t / "out", "--oracle", "command",
                              "--oracle-cmd", unrunnable(t)),
        1, "baseline aborted: evaluation command not runnable: "),
    "run_score_too_large_for_a_float": (
        lambda f, t: run_argv("run", f, t / "out",
                              *printing_scorer(t, '{"score": 1%s}' % ("0" * 400))),
        1, "run aborted: unparsable evaluation output"),
    "run_string_score": (
        lambda f, t: run_argv("run", f, t / "out", *printing_scorer(t, '{"score": "0.5"}')),
        1, "run aborted: unparsable evaluation output"),
    "run_boolean_score": (
        lambda f, t: run_argv("run", f, t / "out", *printing_scorer(t, '{"score": true}')),
        1, "run aborted: unparsable evaluation output"),
    "run_boolean_per_benchmark": (
        lambda f, t: run_argv("run", f, t / "out", *printing_scorer(
            t, '{"score": 0.5, "per_benchmark": {"g": true}}')),
        1, "run aborted: unparsable evaluation output"),
    "run_nan_per_benchmark": (
        lambda f, t: run_argv("run", f, t / "out", *printing_scorer(
            t, '{"score": 1.0, "per_benchmark": {"g": NaN}}')),
        1, "run aborted: non-finite per_benchmark value from the oracle: g: nan"),
    "exec_out_is_a_directory": (
        lambda f, t: occupied(t / "m.jsonl", "dir", exec_argv(f, t, IFD_HALF)),
        1, "output failed: "),
    "run_out_dir_is_a_file": (
        lambda f, t: occupied(t / "out", "file", run_argv("run", f, t / "out")),
        1, "output failed: "),
    "command_oracle_out_dir_is_a_file": (
        lambda f, t: occupied(t / "out", "file", run_argv(
            "run", f, t / "out", *printing_scorer(t, '{"score": 1.0}'))),
        1, "output failed: "),
    "baseline_out_dir_is_a_file": (
        lambda f, t: occupied(t / "out", "file", run_argv("baseline", f, t / "out")),
        1, "output failed: "),
    "report_out_dir_is_a_file": (
        lambda f, t: occupied(t / "out", "file", report_argv(t)),
        1, "output failed: "),
    "run_scorer_not_utf8": (
        lambda f, t: run_argv("run", f, t / "out", "--oracle", "command",
                              "--oracle-cmd", sys.executable, str(not_utf8_script(t))),
        1, "run aborted: evaluation output is not UTF-8"),
    "run_nan_scorer": (lambda f, t: run_argv("run", f, t / "out", *nan_scorer(t)),
                       1, "run aborted: non-finite score from the oracle: nan"),
    "baseline_nan_scorer": (lambda f, t: run_argv("baseline", f, t / "out", *nan_scorer(t)),
                            1, "baseline aborted: non-finite score from the oracle: nan"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_exits_with_documented_code_and_prefix(synth_files, tmp_path, capsys, case):
    argv, code, prefix = FAILURES[case]
    assert main(argv(synth_files, tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "Traceback" not in err
    ledger = tmp_path / "out" / "ledger.jsonl"
    if ledger.exists():  # only a run failure opens a ledger, and it ends with abort
        assert code == 1 and "aborted: " in prefix
        assert ledger_lines(ledger)[-1]["type"] == "abort"
        assert "Infinity" not in ledger.read_text() and "NaN" not in ledger.read_text()


# Parameter values a recipe file may hold: mix sources with non-ASCII digits,
# strings, booleans, numbers past a float and past int64, and nested junk.
_SOURCES = st.one_of(
    st.sampled_from(["incumbent", "eval:1", "eval:\u00b2", "eval:\u0661", "eval:0",
                     "eval:" + "9" * 5000]),
    st.text(max_size=6).map(lambda t: "eval:" + t),
)
_PARAM_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), _SOURCES,
        st.sampled_from([10**400, -(10**400), 2**63, 2**64 + 1, 1e308, -0.0]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_STEPS = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {"operator": st.one_of(st.sampled_from(default_catalog(200).names()),
                                   st.text(max_size=6))},
            optional={"params": st.one_of(
                st.dictionaries(st.sampled_from(["fraction", "k", "seed", "n_clusters",
                                                 "tau", "source"]),
                                _PARAM_VALUES, max_size=3),
                _PARAM_VALUES)},
        ),
        _PARAM_VALUES,
    ),
    max_size=6,
)
RECIPE_TEXT = st.one_of(
    st.fixed_dictionaries({"steps": _STEPS}).map(json.dumps),
    st.fixed_dictionaries({"steps": _STEPS}).map(lambda d: json.dumps([d])),
    _PARAM_VALUES.map(json.dumps),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(text=RECIPE_TEXT)
@example(text='{"steps": [{"operator": "mix", "params": {"source": "eval:\u00b2"}}]}')
@example(text='{"steps": [{"operator": "random_k", "params": {"k": %s}}]}' % ("9" * 5000))
@example(text=json.dumps({"steps": [{"operator": "random_k",
                                      "params": {"k": 2**63, "seed": 2**64 + 1}}]}))
def test_exec_on_any_recipe_file_exits_with_a_documented_code(synth_files, text):
    with tempfile.TemporaryDirectory() as tmp:
        recipe_path = Path(tmp) / "recipe.json"
        recipe_path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["exec", *data_args(synth_files), "--recipe", str(recipe_path),
                         "--out", str(Path(tmp) / "m.jsonl")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def handmade_eval(step, score, ops, retain=0.5, size=100):
    return {
        "type": "eval", "step": step, "score": score, "subset_size": size,
        "recipe": {"steps": [{"operator": o, "params": {}} for o in ops]},
        "state": {
            "score_mean": 0.5, "score_std": 0.1, "score_per_task": {"g": 0.5},
            "retain_ratio": retain, "token_ratio": retain,
            "distribution_drift": 0.1, "mean_ifd": 1.0, "mean_varentropy": 1.0,
        },
        "is_warmup": step <= 3, "seed_phase": 1, "subset_hash": f"h{step}",
        "cache_hit": False,
    }


class TestReport:
    def test_monotone_ledger_best_equals_raw(self, tmp_path):
        ledger = tmp_path / "mono.jsonl"
        rows = [{"type": "header", "run_id": "m"}]
        rows += [handmade_eval(i, float(i), ["ifd_topfrac"]) for i in range(1, 7)]
        write_jsonl(ledger, rows)
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "curves.csv") as fh:
            table = list(csv.DictReader(fh))
        assert [r["score"] for r in table] == [r["best_so_far"] for r in table]

    def test_tertile_pair_counts_hand_tally(self, tmp_path):
        # 6 records: top tertile (scores 60, 50) both carry a->b;
        # bottom tertile (scores 10, 20) carry c->d and c alone
        ledger = tmp_path / "pairs.jsonl"
        rows = [{"type": "header", "run_id": "p"}]
        rows.append(handmade_eval(1, 60.0, ["ngram_topfrac", "mona_filter"]))
        rows.append(handmade_eval(2, 50.0, ["ngram_topfrac", "mona_filter"]))
        rows.append(handmade_eval(3, 40.0, ["ao_topfrac"]))
        rows.append(handmade_eval(4, 30.0, ["ifd_topfrac"]))
        rows.append(handmade_eval(5, 20.0, ["semdedup", "random_k"]))
        rows.append(handmade_eval(6, 10.0, ["semdedup"]))
        write_jsonl(ledger, rows)
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "motifs.csv") as fh:
            table = {r["pair"]: r for r in csv.DictReader(fh)}
        assert table["ngram_topfrac->mona_filter"]["top_count"] == "2"
        assert table["ngram_topfrac->mona_filter"]["bottom_count"] == "0"
        assert table["ngram_topfrac->mona_filter"]["delta"] == "2"
        assert table["semdedup->random_k"]["delta"] == "-1"

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        ledger = tmp_path / "bad.jsonl"
        rows = [{"type": "header", "run_id": "b"},
                handmade_eval(1, 1.0, ["ifd_topfrac"])]
        write_jsonl(ledger, rows)
        with open(ledger, "a") as fh:
            fh.write("{not json\n")
        # a child process, so the warning meets the CLI's own logging set-up
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "recipesearch.cli", "report", str(ledger),
             "--out-dir", str(tmp_path / "rep")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [f"warning: {ledger}: skipped 1 corrupt ledger line(s)"]

    def test_state_parsed_once_per_eval_line(self, tmp_path, monkeypatch):
        ledger = tmp_path / "once.jsonl"
        write_jsonl(ledger, [{"type": "header", "run_id": "o"}]
                    + [handmade_eval(i, float(i % 4), ["ifd_topfrac"]) for i in range(1, 7)])
        calls = []
        real = cli.state_from_dict
        monkeypatch.setattr(cli, "state_from_dict", lambda doc: calls.append(1) or real(doc))
        assert main(["report", str(ledger), "--out-dir", str(tmp_path / "rep")]) == 0
        assert len(calls) == 6

    def test_mixed_benchmark_ledger_correlates_the_common_fields(self, tmp_path):
        # two runs over pools with different benchmarks, joined into one file
        ledger = tmp_path / "joined.jsonl"
        rows = []
        for run, bench in (("a", "gsm8k"), ("b", "mmlu")):
            rows.append({"type": "header", "run_id": run})
            for step in range(1, 4):
                row = handmade_eval(step, float(step), ["ifd_topfrac"], retain=step / 10)
                row["state"]["score_per_task"] = {bench: step / 10}
                rows.append(row)
        write_jsonl(ledger, rows)
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "state_correlations.csv") as fh:
            fields = [r["field"] for r in csv.DictReader(fh)]
        assert fields == ["retain_ratio", "token_ratio"]

    @pytest.mark.parametrize("line", [
        {"type": "eval", "step": 1},
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), score="1.0"),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), subset_size=None),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={**handmade_eval(2, 1, [])["state"],
                                                           "score_per_task": [0.5]}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), recipe={"steps": [{"params": {}}]}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), recipe={"steps": "ifd_topfrac"}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), score=10**400),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={**handmade_eval(2, 1, [])["state"],
                                                           "retain_ratio": True}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={**handmade_eval(2, 1, [])["state"],
                                                           "token_ratio": "0.5"}),
        dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={**handmade_eval(2, 1, [])["state"],
                                                           "score_per_task": {"g": "0.3"}}),
        # a number a float cannot hold, written as the line's raw JSON text
        *(pytest.param(json.dumps(line).replace('"@"', literal), id=f"{field}_{literal}")
          for field, line in (
              ("step", dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), step="@")),
              ("score", dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), score="@")),
              ("subset_size", dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), subset_size="@")),
              ("mean_ifd", dict(handmade_eval(2, 1.0, ["ifd_topfrac"]),
                                state={**handmade_eval(2, 1, [])["state"], "mean_ifd": "@"})),
              ("score_per_task", dict(handmade_eval(2, 1.0, ["ifd_topfrac"]), state={
                  **handmade_eval(2, 1, [])["state"], "score_per_task": {"g": "@"}})),
          )
          for literal in ("NaN", "Infinity", "-Infinity", "1e400")),
    ])
    def test_unreadable_eval_line_skipped_like_a_corrupt_one(self, tmp_path, capsys, line):
        ledger = tmp_path / "evals.jsonl"
        rows = [{"type": "header", "run_id": "e"}, handmade_eval(1, 1.0, ["ifd_topfrac"]), line,
                handmade_eval(3, 2.0, ["ao_topfrac", "ifd_topfrac"])]
        ledger.write_text("".join(
            (row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows
        ))
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 corrupt ledger line" in err and "Traceback" not in err
        with open(out_dir / "curves.csv") as fh:
            assert [r["step"] for r in csv.DictReader(fh)] == ["1", "3"]

    def test_line_not_an_object_skipped(self, tmp_path, capsys):
        ledger = tmp_path / "list.jsonl"
        write_jsonl(ledger, [{"type": "header", "run_id": "l"}, [1],
                             handmade_eval(1, 1.0, ["ifd_topfrac"])])
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        assert "skipped 1 corrupt ledger line" in capsys.readouterr().err
        assert len((out_dir / "curves.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_ledger_one_line_exit_1(self, tmp_path, capsys, kind):
        good = tmp_path / "good.jsonl"
        write_jsonl(good, [{"type": "header", "run_id": "g"},
                           handmade_eval(1, 1.0, ["ifd_topfrac"])])
        bad = tmp_path / "bad.jsonl"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not_utf8":
            bad.write_bytes(b"\xff\xfe\x00{}\n")
        out_dir = tmp_path / "rep"
        assert main(["report", str(good), str(bad), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ingestion failed: ledger {bad}: ")
        assert not out_dir.exists()

    def test_comparison_table_one_row_per_ledger(self, tmp_path):
        paths = []
        for name, scores in (("one", [1.0, 2.0]), ("two", [5.0, 4.0])):
            ledger = tmp_path / f"{name}.jsonl"
            rows = [{"type": "header", "run_id": name}]
            rows += [handmade_eval(i + 1, s, ["ifd_topfrac"])
                     for i, s in enumerate(scores)]
            write_jsonl(ledger, rows)
            paths.append(str(ledger))
        out_dir = tmp_path / "cmp"
        assert main(["report"] + paths + ["--out-dir", str(out_dir)]) == 0
        content = (out_dir / "comparison.csv").read_text().splitlines()
        assert content[0].startswith("#")  # the formula note rides along
        reader = list(csv.DictReader(content[1:]))
        assert len(reader) == 2
        assert reader[1]["best"] == "5.0"

    def test_report_is_pure_function_of_ledger(self, tmp_path):
        ledger = tmp_path / "pure.jsonl"
        rows = [{"type": "header", "run_id": "p"}]
        rows += [handmade_eval(i, float(i % 3), ["ifd_topfrac"]) for i in range(1, 8)]
        write_jsonl(ledger, rows)
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            main(["report", str(ledger), "--out-dir", str(out_dir)])
            outs.append((out_dir / "curves.csv").read_bytes())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Deeply nested JSON at every decode site
# ---------------------------------------------------------------------------

# JSON documents that no decode site may turn into a traceback: nesting past
# the recursion limit, and an integer past the int-string conversion limit
UNDECODABLE_JSON = {
    "deep": "[" * 50000 + "]" * 50000,
    "huge_integer": "[" + "9" * 5000 + "]",
}

# entry point -> (exit code, message on stderr or in the assistant_failure events)
DEEP_CASES = {
    "exec_recipe": (1, "malformed JSON"),
    "report_ledger": (0, "skipped 1 corrupt ledger line"),
    "pool": (1, "invalid JSON at line 201"),
    "signals": (1, "invalid JSON at line 201"),
    "targets": (1, "invalid JSON"),
    "oracle_spec": (2, "oracle spec rejected"),
    "scorer": (1, "unparsable evaluation output"),
    "proposer": (0, "unparsable JSON"),
    "ranker": (0, "unparsable JSON"),
    "reseeder": (0, "unparsable JSON"),
}
ROLES = ("proposer", "ranker", "reseeder")


def deep_argv(name, synth_files, tmp_path, payload):
    """argv of one CLI entry point whose JSON input is ``payload``."""
    deep = tmp_path / "deep.json"
    deep.write_text(payload)
    out_dir = tmp_path / "out"
    if name == "exec_recipe":
        return ["exec", *data_args(synth_files),
                "--recipe", str(deep), "--out", str(tmp_path / "m.jsonl")]
    if name == "report_ledger":
        ledger = tmp_path / "ledger.jsonl"
        write_jsonl(ledger, [{"type": "header", "run_id": "d"},
                             handmade_eval(1, 1.0, ["ifd_topfrac"])])
        with open(ledger, "a") as fh:
            fh.write(payload + "\n")
        return ["report", str(ledger), "--out-dir", str(out_dir)]
    if name in ("pool", "signals", "targets"):
        files = list(synth_files)
        index = ("pool", "signals", "targets").index(name)
        text = "" if name == "targets" else Path(files[index]).read_text()
        files[index] = str(tmp_path / Path(files[index]).name)
        Path(files[index]).write_text(text + payload + "\n")
        return ["ingest-check", *data_args(files)]
    if name == "oracle_spec":
        return run_argv("run", synth_files, out_dir, "--oracle-spec", str(deep))
    script = tmp_path / "print_deep.py"
    reads_prompt = "import sys\nsys.stdin.read()\n" if name in ROLES else ""
    script.write_text(reads_prompt + f"print(open({str(deep)!r}).read())\n")
    if name == "scorer":
        return run_argv("run", synth_files, out_dir, "--oracle", "command",
                        "--oracle-cmd", sys.executable, str(script))
    # master seed 4 at budget 8 proposes, ranks and reseeds (tests/golden)
    cmd = shlex.join([sys.executable, str(script)])
    return run_argv("run", synth_files, out_dir, "--budget", "8", "--master-seed", "4",
                    "--oracle-spec", write_spec(tmp_path, PLANTED_SPEC),
                    "--assistant-cmd", f"{name}={cmd}")


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deeply_nested_json_takes_the_decode_error_path(synth_files, tmp_path, capsys, name):
    code, message = DEEP_CASES[name]
    for kind, payload in UNDECODABLE_JSON.items():
        work = tmp_path / kind
        work.mkdir()
        assert main(deep_argv(name, synth_files, work, payload)) == code, kind
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if name in ROLES:
            events = ledger_lines(work / "out" / "ledger.jsonl")
            failures = {(e["role"], e["error"]) for e in events
                        if e["type"] == "assistant_failure"}
            assert failures == {(name, message)}, kind
            assert events[-1]["type"] == "result"
        else:
            assert message in err, kind
