#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#   bash svcbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The Go build cache, temporary build files, the binary and every store the
# benchmark creates stay under svcbench/ (see .gitignore).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache"
export GOTMPDIR="$here/.build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
mkdir -p "$GOCACHE" "$GOTMPDIR"
go -C "$here" build -o "$here/.build/svcbench" . >&2
# The commit for the provenance line; outside a git checkout, a digest of
# the module's Go sources stands in for it.
if ! commit="$(git -C "$here/.." rev-parse HEAD 2>/dev/null)"; then
	commit="tree-$(cd "$here/.." && find . -path ./svcbench -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
exec "$here/.build/svcbench" --dir "$here/.run" --commit "$commit" "$@"
