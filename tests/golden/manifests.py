"""Manifest and pool-digest bytes for a pool of awkward text.

``python tests/golden/manifests.py`` (with ``src`` on ``PYTHONPATH``)
rewrites the files under ``manifests/`` next to this file from the current
code; ``tests/test_golden.py`` recomputes them and compares the bytes. The
pool holds non-ASCII text, quotes, backslashes, control characters, an
astral-plane character and a lone surrogate, so any change to how a
manifest record or the pool digest is encoded shows here.

Files:

- ``pool_digest.txt``: ``CanonicalPool.content_digest()`` of the pool;
- ``exec.jsonl`` and ``exec.jsonl.state.json``: ``recipesearch exec`` of an
  IFD top-fraction recipe, manifest and state vector;
- ``command_step001.jsonl``: the manifest the command oracle hands its
  command in ``recipesearch baseline --suite random_topk`` over the whole
  pool.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from recipesearch.cli import main
from recipesearch.pool import load_pool

FIXTURE_DIR = Path(__file__).with_suffix("")

POOL_ROWS = [
    {"id": "plain", "instruction": "solve x", "response": "x = 1", "source": "alpaca"},
    {"id": "caf\u00e9 \u4e2d", "instruction": "\u00c9t\u00e9 \u4e2d\u6587 \u03a3\u03a3 \u03c3",
     "response": "\u0130stanbul \u0130STANBUL na\u00efve \U0001f600", "source": "t\u00fclu"},
    {"id": "q\"uote", "instruction": "say \"hi\" and 'bye'",
     "response": "back\\slash \\n \\u0041 not escapes", "source": "src \"q\" \\"},
    {"id": "ctrl", "instruction": "tab\there\nnew\r\x00nul \x1f unit \x7f del \x85 nel",
     "response": "\u2028line\u2029 \ufeffbom </script>", "source": "c\x01\x1b"},
    {"id": "surrogate", "instruction": "lone \ud800 high and \udfff low",
     "response": "ok", "source": "hermes"},
    {"id": "empty", "instruction": "", "response": "", "source": ""},
    {"id": "spaces", "instruction": "  a  A  a ", "response": "\xa0b\u3000b ", "source": "s"},
    {"id": "z/last", "instruction": "A B C D E F G H I", "response": "i h", "source": "s"},
]

# The awkward rows lead on IFD, so the exec recipe keeps them.
IFD = (0.1, 0.9, 0.8, 0.7, 0.95, 0.3, 0.2, 0.05)

EXEC_RECIPE = {"steps": [{"operator": "ifd_topfrac", "params": {"fraction": 0.75}}]}


def _dump(row) -> str:
    """Raw UTF-8 where it exists; ``\\u`` escapes for the lone surrogate."""
    text = json.dumps(row, ensure_ascii=False)
    try:
        text.encode()
    except UnicodeEncodeError:
        text = json.dumps(row)
    return text + "\n"


def write_inputs(work_dir: Path) -> list[str]:
    """Pool, signals and targets files; returns the ``--pool ...`` arguments."""
    pool = work_dir / "pool.jsonl"
    signals = work_dir / "signals.jsonl"
    targets = work_dir / "targets.json"
    pool.write_text("".join(_dump(r) for r in POOL_ROWS), encoding="utf-8")
    signals.write_text("".join(
        _dump({"id": r["id"], "ifd": ifd, "varentropy": 0.5 + i / 8, "ao": 1.0 + i,
               "sparse": [[i % 4, 1.0], [4 + i % 3, 0.25 * (i + 1)]]})
        for i, (r, ifd) in enumerate(zip(POOL_ROWS, IFD))
    ), encoding="utf-8")
    targets.write_text(json.dumps(
        {"sae_dim": 8, "benchmarks": {"t1": [[0, 1.0], [4, 0.5]], "t2": [[2, 1.0]]}}
    ), encoding="utf-8")
    return ["--pool", str(pool), "--signals", str(signals), "--targets", str(targets)]


def compute_files() -> dict[str, bytes]:
    """File name -> bytes, as the current code writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = write_inputs(work)
        out = {"pool_digest.txt": (load_pool(data[1]).content_digest() + "\n").encode()}

        recipe = work / "recipe.json"
        recipe.write_text(json.dumps(EXEC_RECIPE), encoding="utf-8")
        manifest = work / "exec.jsonl"
        assert main(["exec", *data, "--recipe", str(recipe), "--out", str(manifest)]) == 0
        out["exec.jsonl"] = manifest.read_bytes()
        out["exec.jsonl.state.json"] = Path(f"{manifest}.state.json").read_bytes()

        scorer = work / "scorer.py"
        scorer.write_text('print(\'{"score": 1.0}\')\n', encoding="utf-8")
        assert main([
            "baseline", *data, "--suite", "random_topk", "--budget", "1",
            "--size", str(len(POOL_ROWS)), "--out-dir", str(work / "baseline"),
            "--oracle", "command", "--oracle-cmd", sys.executable, str(scorer),
        ]) == 0
        step = work / "baseline" / "manifests" / "manifest_step001.jsonl"
        out["command_step001.jsonl"] = step.read_bytes()
    return out


if __name__ == "__main__":
    FIXTURE_DIR.mkdir(exist_ok=True)
    for name, data in compute_files().items():
        (FIXTURE_DIR / name).write_bytes(data)
        print(f"wrote {FIXTURE_DIR / name}", file=sys.stderr)
