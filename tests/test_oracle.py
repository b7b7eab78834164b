from __future__ import annotations

import hashlib
import json
import sys
from types import SimpleNamespace

import pytest

import recipesearch.operators as operators
from recipesearch.operators import OperatorSpec
from recipesearch.oracle import (
    CommandOracle,
    EvalCache,
    EvalOutcome,
    EvalRequest,
    OracleError,
    SyntheticOracle,
    SyntheticOracleSpec,
    evaluate_synthetic,
    write_manifest,
)
from recipesearch.recipe import Recipe
from recipesearch.state import StateVector

from conftest import subset_from_ids


def make_state(**overrides) -> StateVector:
    base = dict(
        score_mean=0.4, score_std=0.1, score_per_task={"g": 0.4},
        retain_ratio=0.5, token_ratio=0.5, distribution_drift=0.1,
        mean_ifd=1.0, mean_varentropy=1.0,
    )
    base.update(overrides)
    return StateVector(**base)


def make_request(pool, ids, step=1, run_id="test"):
    recipe = Recipe((OperatorSpec("ifd_topfrac", {"fraction": 0.5}),))
    return EvalRequest(
        run_id=run_id, step=step, recipe=recipe, subset=subset_from_ids(ids, pool)
    )


STUB_OK = [sys.executable, "-c", "print('{\"score\": 42.23}')"]
STUB_PER_BENCH = [
    sys.executable, "-c",
    'import json; print(json.dumps({"score": 40.0, "per_benchmark":'
    ' {"b1": 29.0, "b2": 54.6, "b3": 30.0, "b4": 55.3}}))',
]
STUB_FAIL = [sys.executable, "-c", "import sys; sys.exit(1)"]
STUB_GARBAGE = [sys.executable, "-c", "print('not json at all')"]
STUB_NOT_OBJECT = [sys.executable, "-c", "print('[1, 2]')"]
STUB_BAD_PER_BENCH = [
    sys.executable, "-c", "print('{\"score\": 1.0, \"per_benchmark\": [1]}')"
]
# reads the manifest it was handed and scores by subset size
STUB_READS_MANIFEST = [
    sys.executable, "-c",
    "import json, sys\n"
    "lines = open(sys.argv[1]).read().splitlines()\n"
    "header = json.loads(lines[0])\n"
    "assert header['subset_size'] == len(lines) - 1\n"
    "print(json.dumps({'score': float(header['subset_size'])}))",
]


class TestCommandOracle:
    def test_stub_score_recorded(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_OK, str(tmp_path))
        outcome = oracle.evaluate(make_request(pool, ["a", "b"]), make_state())
        assert outcome.score == 42.23
        assert outcome.duration_s is not None and outcome.duration_s >= 0.0

    def test_manifest_written_before_invocation(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_READS_MANIFEST, str(tmp_path))
        outcome = oracle.evaluate(make_request(pool, ["a", "b", "d"]), make_state())
        assert outcome.score == 3.0

    def test_nonzero_exit_aborts(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_FAIL, str(tmp_path))
        with pytest.raises(OracleError, match="exited 1"):
            oracle.evaluate(make_request(pool, ["a"]), make_state())

    def test_unparsable_output_aborts(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_GARBAGE, str(tmp_path))
        with pytest.raises(OracleError, match="unparsable"):
            oracle.evaluate(make_request(pool, ["a"]), make_state())

    @pytest.mark.parametrize("stub", [STUB_NOT_OBJECT, STUB_BAD_PER_BENCH])
    def test_wrongly_shaped_output_aborts(self, tiny, tmp_path, stub):
        pool, _ = tiny
        oracle = CommandOracle(stub, str(tmp_path))
        with pytest.raises(OracleError, match="unparsable"):
            oracle.evaluate(make_request(pool, ["a"]), make_state())

    def test_missing_command(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(["/does/not/exist"], str(tmp_path))
        with pytest.raises(OracleError, match="not found"):
            oracle.evaluate(make_request(pool, ["a"]), make_state())

    def test_per_benchmark_passthrough(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_PER_BENCH, str(tmp_path))
        outcome = oracle.evaluate(make_request(pool, ["a"]), make_state())
        assert outcome.per_benchmark == {"b1": 29.0, "b2": 54.6, "b3": 30.0, "b4": 55.3}

    def test_manifest_format(self, tiny, tmp_path):
        pool, _ = tiny
        request = make_request(pool, ["c", "a"], step=4, run_id="r7")
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), request)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["run_id"] == "r7"
        assert header["step"] == 4
        assert header["subset_size"] == 2
        assert "steps" in header["recipe"]
        records = [json.loads(ln) for ln in lines[1:]]
        assert [r["id"] for r in records] == ["a", "c"]  # pool order
        assert set(records[0]) == {"id", "instruction", "response", "source"}


class TestSyntheticOracle:
    def test_constant_family(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(family="constant", value=10.0)
        for ids in (["a"], ["a", "b"], ["d"]):
            score = evaluate_synthetic(make_request(pool, ids), spec, make_state())
            assert score == 10.0

    def test_planted_quadratic_vertex(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=3.0,
            weights={"retain_ratio": 2.0}, targets={"retain_ratio": 0.5},
        )
        request = make_request(pool, ["a"])
        at_target = evaluate_synthetic(request, spec, make_state(retain_ratio=0.5))
        off_low = evaluate_synthetic(request, spec, make_state(retain_ratio=0.3))
        off_high = evaluate_synthetic(request, spec, make_state(retain_ratio=0.7))
        assert at_target == 3.0
        assert off_low == pytest.approx(3.0 - 2.0 * 0.04)
        assert off_high < at_target and off_low < at_target

    def test_state_linear_hand_arithmetic(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(
            family="state_linear", intercept=1.0,
            coefficients={"retain_ratio": 2.0, "score_mean": 4.0},
        )
        state = make_state(retain_ratio=0.5, score_mean=0.5)
        score = evaluate_synthetic(make_request(pool, ["a"]), spec, state)
        assert score == pytest.approx(1.0 + 2.0 * 0.5 + 4.0 * 0.5)

    def test_per_task_field_addressable(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(
            family="state_linear", coefficients={"score_per_task.g": 10.0}
        )
        state = make_state(score_per_task={"g": 0.25})
        assert evaluate_synthetic(make_request(pool, ["a"]), spec, state) == 2.5

    def test_noise_deterministic_per_subset(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(family="constant", value=0.0, noise_std=1.0,
                                   noise_seed=5)
        r1 = make_request(pool, ["a", "b"])
        r2 = make_request(pool, ["a", "b"], step=9)  # same subset, later step
        r3 = make_request(pool, ["a", "c"])
        s1 = evaluate_synthetic(r1, spec, make_state())
        assert evaluate_synthetic(r1, spec, make_state()) == s1
        assert evaluate_synthetic(r2, spec, make_state()) == s1  # content-keyed
        assert evaluate_synthetic(r3, spec, make_state()) != s1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic oracle family"):
            SyntheticOracleSpec(family="mystery")

    def test_spec_round_trip_from_dict(self):
        doc = {"family": "planted_quadratic", "offset": 2.0,
               "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.4}}
        spec = SyntheticOracleSpec.from_dict(doc)
        assert spec.offset == 2.0 and spec.targets["retain_ratio"] == 0.4

    def test_from_dict_names_every_problem(self):
        doc = {"family": "planted_quadratic",
               "weights": {"retain": 1.0, "retain_ratio": "x"}}
        with pytest.raises(ValueError) as err:
            SyntheticOracleSpec.from_dict(doc, ["retain_ratio"])
        assert "weights: unknown state field 'retain'" in str(err.value)
        assert "weights.retain_ratio must be a number" in str(err.value)

    def test_oracle_interface(self, tiny):
        pool, _ = tiny
        oracle = SyntheticOracle(SyntheticOracleSpec(family="constant", value=7.0))
        outcome = oracle.evaluate(make_request(pool, ["a"]), make_state())
        assert outcome.score == 7.0 and outcome.per_benchmark is None


class TestCache:
    def test_hit_on_identical_content(self, tiny):
        pool, _ = tiny
        cache = EvalCache()
        h1 = subset_from_ids(["a", "b"], pool).content_hash()
        h2 = subset_from_ids(["b", "a"], pool).content_hash()  # same id set
        assert h1 == h2
        assert cache.lookup(h1) is None
        cache.store(h1, EvalOutcome(score=5.0))
        hit = cache.lookup(h2)
        assert hit is not None and hit.score == 5.0

    def test_digest_computed_once(self, tiny, monkeypatch):
        pool, _ = tiny
        subset = subset_from_ids(["a", "b"], pool)
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(
            operators, "hashlib",
            SimpleNamespace(sha256=lambda *data: calls.append(1) or sha256(*data)),
        )
        assert subset.content_hash() == subset.content_hash()
        assert len(calls) == 1

    def test_miss_on_one_element_difference(self, tiny):
        pool, _ = tiny
        cache = EvalCache()
        cache.store(subset_from_ids(["a", "b"], pool).content_hash(), EvalOutcome(1.0))
        assert cache.lookup(subset_from_ids(["a", "c"], pool).content_hash()) is None

    def test_fresh_cache_always_misses(self, tiny):
        pool, _ = tiny
        h = subset_from_ids(["a"], pool).content_hash()
        cache_one = EvalCache()
        cache_one.store(h, EvalOutcome(1.0))
        assert EvalCache().lookup(h) is None
