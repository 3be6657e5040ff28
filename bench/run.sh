#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root, passing every argument through. Build outputs and the Go build cache
# stay under .bench_build, so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
if [ -z "${BENCH_COMMIT:-}" ] && command -v git >/dev/null 2>&1; then
	BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-}"
go -C "$root/bench" build -o "$out/dgc-e2e" .
cd "$root"
exec "$out/dgc-e2e" "$@"
