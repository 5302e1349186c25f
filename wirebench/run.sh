#!/usr/bin/env bash
# Builds wirebench from source and runs it. Run from the repository
# root; every flag is passed on:
#
#   bash wirebench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, the binary and the run reports stay
# under .bench_build/wirebench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/wirebench"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTELEMETRY=off
(cd "$root/wirebench" && go build -o "$out/wirebench" .) >&2
exec "$out/wirebench" -out "$out" "$@"
