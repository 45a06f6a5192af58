#!/usr/bin/env bash
# Builds ldp-server and the fused benchmark from source, then runs the
# benchmark with the arguments given (see README.md):
#
#   bash fusedbench/run.sh --workload root-udp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry and module cache under HOME; keep
# those inside the checkout as well. The module needs no downloads.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/ldp-server" ./cmd/ldp-server
go -C fusedbench build -o "$out/fusedbench" .

# One half of the cores for each side: the benchmark process (replay)
# and the ldp-server child it spawns with the same setting.
procs=$(( $(nproc) / 2 ))
if (( procs < 1 )); then procs=1; fi
GOMAXPROCS=$procs exec "$out/fusedbench" -server-bin "$out/ldp-server" -work "$out" "$@"
