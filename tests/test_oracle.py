from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recipesearch.operators as operators
import recipesearch.pool as pool_module
from recipesearch.operators import OperatorSpec
from recipesearch.oracle import (
    CommandOracle,
    EvalCache,
    EvalOutcome,
    EvalRequest,
    OracleError,
    SyntheticOracle,
    SyntheticOracleSpec,
    run_command,
    write_manifest,
)
from recipesearch.pool import load_pool
from recipesearch.recipe import Recipe
from recipesearch.state import StateVector

from conftest import subset_from_ids, write_jsonl


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

    def test_timeout_above_the_bound_aborts(self, tiny, tmp_path):
        pool, _ = tiny
        oracle = CommandOracle(STUB_OK, str(tmp_path), timeout=2147484)
        with pytest.raises(OracleError, match="at most 2147483, got 2147484"):
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


# Text that JSON escapes: quotes, backslashes, control characters, line and
# paragraph separators, a BOM, astral characters and lone surrogates.
AWKWARD = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x85", "\xa0",
                     "\u2028", "\u2029", "\ufeff", "\ud800", "\udfff",
                     "\U0001f600", "\U0010ffff"]),
    st.characters(),
), max_size=12)


def awkward_rows(texts):
    """Pool rows from ``(id, instruction, response, source)`` texts; ids made unique."""
    return [
        {"id": f"{i}:{sid.replace(chr(0), '')}".encode(errors="replace").decode(),
         "instruction": instruction, "response": response, "source": source}
        for i, (sid, instruction, response, source) in enumerate(texts)
    ]


def load_rows(rows):
    """The pool ``load_pool`` makes of these rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.jsonl")
        write_jsonl(path, rows)
        return load_pool(path)


def reference_manifest(request, rows) -> bytes:
    """The header, then ``json.dumps(record, sort_keys=True)`` of each record in pool order."""
    header = {"run_id": request.run_id, "step": request.step,
              "recipe": {"steps": [{"operator": "ifd_topfrac", "params": {"fraction": 0.5}}]},
              "subset_size": len(request.subset)}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(rows[p], sort_keys=True) for p in request.subset.positions.tolist()]
    return "".join(line + "\n" for line in lines).encode()


def position_request(pool, positions, step=1):
    """``make_request`` of the samples at these positions, repeats allowed."""
    return make_request(pool, {pool.ids[p] for p in positions}, step=step)


class TestManifestRecordCache:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           texts=st.lists(st.tuples(AWKWARD, AWKWARD, AWKWARD, AWKWARD), min_size=1,
                          max_size=12))
    def test_every_manifest_matches_the_reference(self, data, texts):
        rows = awkward_rows([*texts, ("t", "token", "", "s")])  # a pool needs a token
        pool = load_rows(rows)
        subsets = data.draw(st.lists(
            st.lists(st.integers(0, len(rows) - 1), max_size=len(rows)), min_size=1,
            max_size=6))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.jsonl")
            for step, positions in enumerate(subsets):
                request = position_request(pool, positions, step=step)
                write_manifest(path, request)
                with open(path, "rb") as fh:
                    assert fh.read() == reference_manifest(request, rows)

    def test_each_record_is_formatted_once(self, tmp_path, monkeypatch):
        """A manifest formats its own samples alone, and only those no earlier one did."""
        calls = []

        def spy(text):
            calls.append(text)
            return escape(text)

        escape = pool_module.encode_basestring_ascii
        monkeypatch.setattr(pool_module, "encode_basestring_ascii", spy)
        rows = awkward_rows([(f"s{i}", "a\"b", "\\", "\ud800") for i in range(10)])
        pool = load_rows(rows)
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), position_request(pool, [1, 4, 7]))
        assert len(calls) == 4 * 3  # id, instruction, response, source of the subset alone
        write_manifest(str(path), position_request(pool, [1, 4, 7], step=2))
        assert len(calls) == 4 * 3
        write_manifest(str(path), position_request(pool, [0, 4, 7, 9], step=3))
        assert len(calls) == 4 * 5
        assert path.read_bytes() == reference_manifest(
            position_request(pool, [0, 4, 7, 9], step=3), rows)

    def test_concurrent_writers_match_sequential_writes(self, tmp_path):
        """Writers of one fresh pool racing to fill its lines write what they write alone."""
        rows = awkward_rows([(f"s{i}", f"q\"{i}\\", "\U0001f600" * (i % 5), "\x01")
                             for i in range(3000)])
        subsets = [range(0, 3000, 2), range(0, 3000, 3), range(1000, 3000), range(0, 2000)]
        expected = []
        for i, positions in enumerate(subsets):
            write_manifest(str(tmp_path / "seq.jsonl"),
                           position_request(load_rows(rows), positions, step=i))
            expected.append((tmp_path / "seq.jsonl").read_bytes())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(4):
                pool = load_rows(rows)
                requests = [position_request(pool, positions, step=i)
                            for i, positions in enumerate(subsets)]
                paths = [str(tmp_path / f"t{attempt}_{i}.jsonl") for i in range(len(subsets))]
                barrier = threading.Barrier(len(subsets))
                errors = []

                def write(i):
                    try:
                        barrier.wait(timeout=30)
                        write_manifest(paths[i], requests[i])
                    except BaseException as exc:  # reported by the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=write, args=(i,))
                           for i in range(len(subsets))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert [Path(path).read_bytes() for path in paths] == expected
        finally:
            sys.setswitchinterval(switch)


def ended(pid, seconds=5.0):
    """Whether process ``pid`` ends within ``seconds``; it is killed if it does not.

    A killed process counts as ended once it is a zombie, as it stays until
    its parent, or the process that adopted it, reaps it.
    """
    def gone():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
        except FileNotFoundError:
            return True

    deadline = time.monotonic() + seconds
    while not gone() and time.monotonic() < deadline:
        time.sleep(0.05)
    if gone():
        return True
    os.kill(pid, signal.SIGKILL)
    return False


def child_recording(pid_file):
    """A command whose shell starts a child, records the child's pid and waits for it."""
    return ["sh", "-c", f"sleep 30 & echo $! > {pid_file}; wait"]


def test_timeout_kills_the_command_and_its_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    started = time.monotonic()
    assert run_command(child_recording(pid_file), None, 1.0) == (
        None, "command timed out after 1.0s")
    assert time.monotonic() - started < 10
    assert ended(int(pid_file.read_text()))


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf, 2147484, 1e10])
def test_unusable_timeout_starts_nothing(monkeypatch, timeout):
    started = []
    popen = subprocess.Popen
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *args, **kwargs: started.append(args) or popen(*args, **kwargs))
    proc, reason = run_command(["true"], None, timeout)
    assert proc is None
    assert reason == (f"command timeout must be a finite number > 0 and at most 2147483, "
                      f"got {timeout}")
    assert started == []


def test_longest_timeout_runs():
    proc, reason = run_command(["true"], None, 2147483)
    assert (proc.returncode, reason) == (0, "")


def test_interrupt_kills_the_command_and_its_children(tmp_path, monkeypatch):
    pid_file = tmp_path / "child.pid"

    def interrupted(proc, *args, **kwargs):
        while not pid_file.exists() or not pid_file.read_text().strip():
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command(child_recording(pid_file), None, 60.0)
    assert ended(int(pid_file.read_text()))


class TestSyntheticOracle:
    def test_constant_family(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(family="constant", value=10.0)
        for ids in (["a"], ["a", "b"], ["d"]):
            score = SyntheticOracle(spec).evaluate(make_request(pool, ids), make_state()).score
            assert score == 10.0

    def test_planted_quadratic_vertex(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(
            family="planted_quadratic", offset=3.0,
            weights={"retain_ratio": 2.0}, targets={"retain_ratio": 0.5},
        )
        request = make_request(pool, ["a"])
        at_target = SyntheticOracle(spec).evaluate(request, make_state(retain_ratio=0.5)).score
        off_low = SyntheticOracle(spec).evaluate(request, make_state(retain_ratio=0.3)).score
        off_high = SyntheticOracle(spec).evaluate(request, make_state(retain_ratio=0.7)).score
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
        score = SyntheticOracle(spec).evaluate(make_request(pool, ["a"]), state).score
        assert score == pytest.approx(1.0 + 2.0 * 0.5 + 4.0 * 0.5)

    def test_per_task_field_addressable(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(
            family="state_linear", coefficients={"score_per_task.g": 10.0}
        )
        state = make_state(score_per_task={"g": 0.25})
        assert SyntheticOracle(spec).evaluate(make_request(pool, ["a"]), state).score == 2.5

    def test_noise_deterministic_per_subset(self, tiny):
        pool, _ = tiny
        spec = SyntheticOracleSpec(family="constant", value=0.0, noise_std=1.0,
                                   noise_seed=5)
        r1 = make_request(pool, ["a", "b"])
        r2 = make_request(pool, ["a", "b"], step=9)  # same subset, later step
        r3 = make_request(pool, ["a", "c"])
        s1 = SyntheticOracle(spec).evaluate(r1, make_state()).score
        assert SyntheticOracle(spec).evaluate(r1, make_state()).score == s1
        assert SyntheticOracle(spec).evaluate(r2, make_state()).score == s1  # content-keyed
        assert SyntheticOracle(spec).evaluate(r3, make_state()).score != s1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic oracle family"):
            SyntheticOracleSpec(family="mystery")

    @pytest.mark.parametrize("kwargs,message", [
        ({"family": "planted_quadratic", "coefficients": {"retain_ratio": 1.0}},
         "key 'coefficients' does not apply to family 'planted_quadratic'"),
        ({"family": "planted_quadratic", "weights": {"retain_ratio": "x"}},
         "weights.retain_ratio must be a number, got 'x'"),
        ({"noise_seed": -1}, "noise_seed must be a nonnegative integer, got -1"),
    ])
    def test_library_spec_checked_as_from_dict(self, kwargs, message):
        for build in (lambda: SyntheticOracleSpec.from_dict(kwargs),
                      lambda: SyntheticOracleSpec(**kwargs)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        # a field left at its default is not a key the family must read
        assert SyntheticOracleSpec(family="state_linear", coefficients={}).family == "state_linear"

    def test_spec_round_trip_from_dict(self):
        doc = {"family": "planted_quadratic", "offset": 2.0,
               "weights": {"retain_ratio": 1.0}, "targets": {"retain_ratio": 0.4}}
        spec = SyntheticOracleSpec.from_dict(doc)
        assert spec.offset == 2.0 and spec.targets["retain_ratio"] == 0.4

    def test_from_dict_names_every_problem(self):
        doc = {"family": "planted_quadratic", "weight": {"retain_ratio": 1.0},
               "weights": {"retain": 1.0, "retain_ratio": "x"}}
        with pytest.raises(ValueError) as err:
            SyntheticOracleSpec.from_dict(doc, ["retain_ratio"])
        assert str(err.value).startswith("unknown key 'weight'; ")
        assert "weights: unknown state field 'retain'" in str(err.value)
        assert "weights.retain_ratio must be a number" in str(err.value)

    def test_from_dict_takes_only_the_keys_the_family_reads(self):
        doc = {"family": "state_linear", "noise_std": 0.1, "noise_seed": 2,
               "coefficients": {"retain_ratio": 1.0}, "value": 1.0, "weights": {}}
        with pytest.raises(ValueError) as err:
            SyntheticOracleSpec.from_dict(doc)
        assert str(err.value) == ("key 'value' does not apply to family 'state_linear'; "
                                  "key 'weights' does not apply to family 'state_linear'")
        for family, keys in [("planted_quadratic", ["offset", "weights", "targets"]),
                             ("state_linear", ["intercept", "coefficients"]),
                             ("constant", ["value"])]:
            spec = SyntheticOracleSpec.from_dict(
                {"family": family, "noise_std": 0.1, "noise_seed": 2,
                 **{key: getattr(SyntheticOracleSpec(), key) for key in keys}})
            assert spec.family == family
        # an unknown family is one of the problems, after unknown keys
        with pytest.raises(ValueError) as err:
            SyntheticOracleSpec.from_dict({"family": "mystery", "valu": 1, "value": "x"})
        assert str(err.value) == ("unknown key 'valu'; unknown synthetic oracle family "
                                  "'mystery'; value must be a number, got 'x'")

    def test_from_dict_takes_defaults_and_reads_numbers_as_floats(self):
        assert SyntheticOracleSpec.from_dict({}) == SyntheticOracleSpec()
        spec = SyntheticOracleSpec.from_dict(
            {"family": "planted_quadratic", "offset": 2, "weights": {"retain_ratio": 1},
             "noise_seed": 3})
        assert type(spec.offset) is float and spec.offset == 2.0
        assert type(spec.weights["retain_ratio"]) is float
        assert type(spec.noise_seed) is int and spec.noise_seed == 3

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
        state = make_state()
        cache.store(h1, EvalOutcome(score=5.0), state)
        hit = cache.lookup(h2)
        assert hit is not None and hit[0].score == 5.0
        assert hit[1] is state

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
        cache.store(subset_from_ids(["a", "b"], pool).content_hash(), EvalOutcome(1.0),
                    make_state())
        assert cache.lookup(subset_from_ids(["a", "c"], pool).content_hash()) is None

    def test_fresh_cache_always_misses(self, tiny):
        pool, _ = tiny
        h = subset_from_ids(["a"], pool).content_hash()
        cache_one = EvalCache()
        cache_one.store(h, EvalOutcome(1.0), make_state())
        assert EvalCache().lookup(h) is None
