#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own that drives the
# repository's packages, compiled with the repository's PGO profile) and
# runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh -workload mc-high-nmap -seed 1 -seconds 20 -trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root: the simulator's sources are not here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= GOENV=off

pgo=off
[[ -f "$root/default.pgo" ]] && pgo="$root/default.pgo"
go -C "$root/benchmark" build -trimpath -pgo="$pgo" -o "$build/nmapbench" .
exec "$build/nmapbench" "$@"
