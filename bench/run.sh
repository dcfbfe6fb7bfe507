#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from (the go build cache goes there too, so nothing outside the checkout
# is written) and runs it with the arguments given.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o ../.bench_build/storebench .
exec ./.bench_build/storebench "$@"
