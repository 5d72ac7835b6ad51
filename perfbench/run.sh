#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload matrix-exact --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build in the checkout. The build fails (and nothing is printed on stdout) when the
# simulator sources are absent, e.g. in a directory that holds only the
# benchmark files.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
