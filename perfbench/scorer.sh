#!/bin/sh
# Runs scorer.py without site-packages (-S -I): the interpreter then starts in
# about 8 ms instead of 45 ms, so the scorer stays a small share of a command.
# usage: sh scorer.sh PYTHON POOL_SIZE LOG MANIFEST
python="$1"
shift
exec "$python" -S -I "$(dirname "$0")/scorer.py" "$@"
