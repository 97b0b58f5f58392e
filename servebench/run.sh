#!/usr/bin/env bash
# Build the serving benchmark from this checkout and run it:
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . --display quiet ./servebench/main.exe 1>&2
sha=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
  sha=$(git rev-parse HEAD)
fi
# Journals and epoch snapshots go under this directory; fsync timings only
# mean something on a disk-backed filesystem.
fs=$(stat -f -c %T . 2>/dev/null || echo unknown)
if [ "$fs" = tmpfs ]; then
  echo "warning: the run directory is on tmpfs, journal fsyncs never reach a disk" >&2
fi
exec ./_build/default/servebench/main.exe "$@" --fs-type "$fs" --git-sha "$sha"
