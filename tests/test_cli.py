from __future__ import annotations

import csv
import json
import shlex
import sys
from pathlib import Path

import pytest

from recipesearch.cli import main
from recipesearch.controller import _Runtime
from recipesearch.operators import default_catalog
from recipesearch.pool import load_pool, load_signals
from recipesearch.oracle import SyntheticOracle
from recipesearch.recipe import execute_recipe, parse_recipe
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
PLANTED_SPEC = {
    "family": "planted_quadratic", "offset": 1.0,
    "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.5},
}
BAD_SPECS = {
    "unknown_field": {"family": "planted_quadratic", "weights": {"retain": 1.0}},
    "string_weight": {"family": "planted_quadratic", "weights": {"retain_ratio": "x"}},
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

        recipe = _apply_seed_overrides(recipe, [7, 42])
        expected = execute_recipe(recipe, pool, signals)
        lines = ledger_lines(out)
        assert [r["id"] for r in lines[1:]] == expected.ids()

    def test_state_vector_emitted(self, synth_files, tmp_path):
        code, out = self.run_exec(synth_files, tmp_path, [7, 42])
        state = json.loads((Path(str(out) + ".state.json")).read_text())
        assert set(state) == {
            "score_mean", "score_std", "score_per_task", "retain_ratio",
            "token_ratio", "distribution_drift", "mean_ifd", "mean_varentropy",
        }

    def test_deterministic_recipe_warns_on_seeds(self, synth_files, tmp_path, capsys):
        recipe_path = tmp_path / "det.json"
        recipe_path.write_text(json.dumps({
            "steps": [{"operator": "ifd_topfrac", "params": {"fraction": 0.5}}]
        }))
        out = tmp_path / "det.jsonl"
        code = main(
            ["exec"] + data_args(synth_files)
            + ["--recipe", str(recipe_path), "--out", str(out), "--seeds", "42"]
        )
        assert code == 0
        assert "seed overrides ignored" in capsys.readouterr().err

    def test_seed_count_mismatch_names_steps(self, synth_files, tmp_path):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(json.dumps(FOUR_STEP_RECIPE))
        with pytest.raises(SystemExit) as err:
            main(
                ["exec"] + data_args(synth_files)
                + ["--recipe", str(recipe_path), "--out", str(tmp_path / "x.jsonl"),
                   "--seeds", "42"]
            )
        msg = str(err.value)
        assert "step 3 (semdedup)" in msg and "step 4 (random_k)" in msg


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
        argv = run_argv(command, synth_files, out_dir,
                        "--oracle-spec", write_spec(tmp_path, BAD_SPECS[spec]))
        assert main(argv) == 2
        assert "oracle spec rejected:" in capsys.readouterr().err
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
    ])
    def test_bad_config_rejected_before_ledger(
        self, synth_files, tmp_path, capsys, command, flags
    ):
        out_dir = tmp_path / "out"
        assert main(run_argv(command, synth_files, out_dir, *flags)) == 2
        assert "config rejected:" in capsys.readouterr().err
        assert not (out_dir / "ledger.jsonl").exists()

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

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_quoted_assistant_argument_stays_one_element(
        self, synth_files, tmp_path, monkeypatch, via
    ):
        script = tmp_path / "record_argv.py"
        argv_file = tmp_path / "argv.json"
        script.write_text(
            "import json, sys\n"
            "json.dump(sys.argv[2:], open(sys.argv[1], 'w'))\n"
            "print('a finding')\n"
        )
        cmd = shlex.join([sys.executable, str(script), str(argv_file)]) + " 'two words'"
        extra = ["--budget", "4", "--assistant-mode", "external"]
        if via == "flag":
            extra += ["--assistant-cmd", f"summarizer={cmd}"]
        else:
            monkeypatch.setenv("RECIPESEARCH_ASSISTANT_CMD_SUMMARIZER", cmd)
        assert main(run_argv("run", synth_files, tmp_path / "out", *extra)) == 0
        assert json.loads(argv_file.read_text()) == ["two words"]

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

    def test_corrupt_line_skipped_with_warning(self, tmp_path, capsys):
        ledger = tmp_path / "bad.jsonl"
        rows = [{"type": "header", "run_id": "b"},
                handmade_eval(1, 1.0, ["ifd_topfrac"])]
        write_jsonl(ledger, rows)
        with open(ledger, "a") as fh:
            fh.write("{not json\n")
        out_dir = tmp_path / "rep"
        assert main(["report", str(ledger), "--out-dir", str(out_dir)]) == 0
        assert "skipped 1 corrupt ledger line" in capsys.readouterr().err

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

DEEP_JSON = "[" * 50000 + "]" * 50000

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
    "ranker": (0, "missing or invalid ranking"),
    "reseeder": (0, "unparsable JSON"),
}
ROLES = ("proposer", "ranker", "reseeder")


def deep_argv(name, synth_files, tmp_path):
    """argv of one CLI entry point whose JSON input is DEEP_JSON."""
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    out_dir = tmp_path / "out"
    if name == "exec_recipe":
        return ["exec", *data_args(synth_files),
                "--recipe", str(deep), "--out", str(tmp_path / "m.jsonl")]
    if name == "report_ledger":
        ledger = tmp_path / "ledger.jsonl"
        write_jsonl(ledger, [{"type": "header", "run_id": "d"},
                             handmade_eval(1, 1.0, ["ifd_topfrac"])])
        with open(ledger, "a") as fh:
            fh.write(DEEP_JSON + "\n")
        return ["report", str(ledger), "--out-dir", str(out_dir)]
    if name in ("pool", "signals", "targets"):
        files = list(synth_files)
        index = ("pool", "signals", "targets").index(name)
        text = "" if name == "targets" else Path(files[index]).read_text()
        files[index] = str(tmp_path / Path(files[index]).name)
        Path(files[index]).write_text(text + DEEP_JSON + "\n")
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
                    "--assistant-mode", "external", "--assistant-cmd", f"{name}={cmd}")


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deeply_nested_json_takes_the_decode_error_path(synth_files, tmp_path, capsys, name):
    code, message = DEEP_CASES[name]
    assert main(deep_argv(name, synth_files, tmp_path)) == code
    err = capsys.readouterr().err
    if name in ROLES:
        events = ledger_lines(tmp_path / "out" / "ledger.jsonl")
        failures = {(e["role"], e["error"]) for e in events
                    if e["type"] == "assistant_failure"}
        assert failures == {(name, message)}
        assert events[-1]["type"] == "result"
    else:
        assert message in err
        assert "Traceback" not in err
