#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binary, generated inputs, store copies, span files) stays
# under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ ! -f "$root/go.mod" ]] || ! grep -qx 'module github.com/seldel/seldel' "$root/go.mod"; then
	echo "perfbench: run from the root of a seldel checkout (no seldel go.mod here)" >&2
	exit 2
fi
if [[ ! -f "$root/seldel.go" ]]; then
	echo "perfbench: the seldel sources are missing from $root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# Keep the go command's config, telemetry and caches inside the checkout.
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"

(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
