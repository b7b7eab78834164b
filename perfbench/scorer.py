"""The benchmark's evaluation command: scores a subset manifest from its bytes.

``recipesearch`` runs it through scorer.sh as ``scorer.py POOL_SIZE LOG
MANIFEST``. It appends ``<CLOCK_MONOTONIC at start> <MANIFEST>`` to LOG,
which the benchmark reads to time the first oracle request of a command,
and prints ``{"score": ...}``. The score depends on the manifest alone: it
rewards a retain ratio near 0.35 and, weakly, longer records.
"""

import json
import sys
import time

START = time.monotonic()

RETAIN_TARGET = 0.35


def score_manifest(data: bytes, pool_size: int) -> float:
    """Score of one manifest: header line, then one record per line."""
    body = data[data.index(b"\n") + 1:]
    count = body.count(b"\n")
    if count == 0:
        raise ValueError("manifest holds no records")
    return 1.0 - 4.0 * (count / pool_size - RETAIN_TARGET) ** 2 + 1e-3 * (len(body) / count)


def main(argv: list[str]) -> int:
    pool_size, log_path, manifest = int(argv[0]), argv[1], argv[2]
    with open(manifest, "rb") as fh:
        score = score_manifest(fh.read(), pool_size)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"{START!r} {manifest}\n")
    print(json.dumps({"score": score}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
