#!/usr/bin/env bash
# Build rexdex and the e2e bench from source, then run the bench.
#
#   bash bench/e2e/run.sh --workload serve_pages --seed 1 --seconds 15 --trace 0
#
# Arguments go to main.exe unchanged; see README.md.  Build output goes
# to stderr, so the last line of stdout stays the bench's result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/rexdex_cli.ml ]; then
  echo "rexdex-e2e: not a rexdex source tree: $(pwd)" >&2
  exit 2
fi
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . bin/rexdex_cli.exe bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe \
  --rexdex ./_build/default/bin/rexdex_cli.exe "$@"
