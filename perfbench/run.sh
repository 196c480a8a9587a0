#!/usr/bin/env bash
# Builds the simulator's gscampaign CLI and the benchmark binary into
# .bench_build, then runs one benchmark invocation. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper_run --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/gscampaign" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/ missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
# HOME and XDG_CONFIG_HOME point into the checkout too: the go command keeps
# telemetry counters under the user config directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off CGO_ENABLED=0

# -buildvcs=false: a checkout with and without git metadata builds the same
# binaries, and so the same run-cache keys.
go build -buildvcs=false -o "$build/bin/gscampaign" ./cmd/gscampaign
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)

# Not exec: the benchmark reads its children's peak RSS from getrusage, which
# would otherwise include the go build above.
"$build/bin/perfbench" -root "$root" "$@"
