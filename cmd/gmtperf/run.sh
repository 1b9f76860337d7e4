#!/bin/sh
# Builds gmtperf from source and runs it with the given arguments, e.g.
#
#	sh cmd/gmtperf/run.sh --workload fleet-256 --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact (binary, Go build
# cache, temporary files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/cmd/gmtperf/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "gmtperf: run from the repository root (cmd/gmtperf/main.go and go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/cmd/gmtperf" && go build -o "$out/gmtperf" .)
exec "$out/gmtperf" "$@"
