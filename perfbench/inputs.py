"""Benchmark inputs: synthetic pools generated from the workload seed.

Each pool is written by ``recipesearch.synthetic.write_synthetic_dataset`` in
its own process and cached under ``perfbench/_inputs/``, so generation never
runs inside a measured process and a seed is generated only once per
checkout. Run this file to (re)generate every input of a seed:

    python3 perfbench/inputs.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / "_inputs"
DEFAULT_SEED = 1

# name -> (n_samples, sae_dim)
POOLS = {
    "small": (1000, 64),      # search_dedup
    "large": (50000, 4096),   # search_large, baseline_manifest
}


def dataset_dir(kind: str, seed: int) -> Path:
    n, dim = POOLS[kind]
    return CACHE_DIR / f"{kind}_n{n}_d{dim}_seed{seed}"


def ensure_dataset(kind: str, seed: int) -> Path:
    """Path of the cached dataset, generating it in a child process if missing."""
    path = dataset_dir(kind, seed)
    if not path.is_dir():
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
             "--kind", kind],
            check=True, stdout=subprocess.DEVNULL,
        )
    return path


def generate(kind: str, seed: int) -> Path:
    """Write one dataset into a scratch directory, then move it into place."""
    sys.path.insert(0, str(ROOT / "src"))
    from recipesearch.synthetic import write_synthetic_dataset

    n, dim = POOLS[kind]
    final = dataset_dir(kind, seed)
    scratch = CACHE_DIR / f".{final.name}.{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    write_synthetic_dataset(str(scratch), n_samples=n, sae_dim=dim, seed=seed)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(scratch, final)
    return final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--kind", choices=sorted(POOLS), action="append",
                        help="dataset to generate (default: all)")
    args = parser.parse_args(argv)
    for kind in args.kind or sorted(POOLS):
        print(generate(kind, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
