#!/usr/bin/env bash
# Verifies the install/export packaging end to end:
#   1. builds the library alone and installs it into an emptied scratch
#      prefix (a header deleted from the tree must not survive from an
#      earlier run), which must hold no bench/test tooling (impl/harness,
#      devtools);
#   2. configures the standalone consumer (examples/find_package_consumer)
#      against that prefix via find_package(lfsmr CONFIG);
#   3. builds and runs the consumer's behavioural smoke test;
#   4. asserts the consumer never saw the source tree's src/ headers (the
#      include paths it compiled with come from the install prefix only).
#
# Usage: tools/check_install.sh [build-dir]   (default: build/install-check)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build/install-check}"
PREFIX="$PWD/$BUILD/prefix"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== 1. build + install the library into $PREFIX"
cmake -B "$BUILD/lib" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLFSMR_BUILD_TESTS=OFF -DLFSMR_BUILD_BENCH=OFF \
  -DLFSMR_BUILD_EXAMPLES=OFF -DLFSMR_BUILD_TOOLS=OFF \
  -DCMAKE_INSTALL_PREFIX="$PREFIX"
cmake --build "$BUILD/lib" -j"$JOBS"
rm -rf "$PREFIX"
cmake --install "$BUILD/lib"

test -f "$PREFIX/include/lfsmr/lfsmr.h"
test -f "$PREFIX/include/lfsmr/kv.h"
test -f "$PREFIX/include/lfsmr/telemetry.h"
test -f "$PREFIX/include/lfsmr/version.h"
test -f "$PREFIX/include/lfsmr/impl/core/hyaline.h"
test -f "$PREFIX/include/lfsmr/impl/support/telemetry.h"
test -f "$PREFIX/include/lfsmr/impl/support/trace.h"
test -f "$PREFIX/include/lfsmr/impl/kv/store.h"
test -f "$PREFIX/include/lfsmr/impl/kv/snapshot_registry.h"
test -f "$PREFIX/include/lfsmr/impl/kv/codec.h"
test -f "$PREFIX/include/lfsmr/impl/kv/node_pool.h"
test -f "$PREFIX/include/lfsmr/impl/kv/shard_index.h"
test -f "$PREFIX/include/lfsmr/impl/kv/scan.h"
test -f "$PREFIX/include/lfsmr/impl/kv/txn.h"
test -f "$PREFIX/lib/cmake/lfsmr/lfsmrConfig.cmake"
test -f "$PREFIX/lib/cmake/lfsmr/lfsmrConfigVersion.cmake"
# The benchmark driver lives in bench/ and is not part of the library.
if [ -e "$PREFIX/include/lfsmr/impl/harness" ]; then
  echo "ERROR: benchmark-only headers installed under impl/harness" >&2
  exit 1
fi
# Bench and test tooling lives in the non-installed lfsmr_devtools target
# (devtools/): none of its headers may be installed, and none of its
# objects may be archived into the library.
for H in report.h cli.h stats.h workload.h barrier.h random.h build_info.h; do
  if [ -n "$(find "$PREFIX/include/lfsmr/impl" -name "$H" -print -quit)" ]; then
    echo "ERROR: dev-tool header $H installed under impl/" >&2
    exit 1
  fi
done
if ar t "$PREFIX/lib/liblfsmr.a" | grep -Eq '^(report|cli)[.]'; then
  echo "ERROR: liblfsmr.a archives a report or cli object" >&2
  exit 1
fi

echo "== 2. configure the standalone consumer against the prefix"
cmake -B "$BUILD/consumer" -S examples/find_package_consumer \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_PREFIX_PATH="$PREFIX"

echo "== 3. build + run the consumer smoke test"
cmake --build "$BUILD/consumer" -j"$JOBS"
"$BUILD/consumer/lfsmr-consumer-smoke"

echo "== 4. consumer compiled against the prefix only"
# The compile command for main.cpp must reference the install prefix and
# must not reference the repository's src/ or include/ directories. The
# dep-file location varies by generator, so find it — and fail loudly if
# it is gone (a silent skip would green-light the job without verifying
# its headline claim).
DEPS="$(find "$BUILD/consumer" -name 'main.cpp.o.d' -print -quit)"
if [ -z "$DEPS" ]; then
  echo "ERROR: consumer dependency file not found under $BUILD/consumer;" \
       "cannot verify include isolation" >&2
  exit 1
fi
if grep -q " $PWD/src/" "$DEPS" || grep -q " $PWD/include/" "$DEPS"; then
  echo "ERROR: consumer resolved headers from the source tree" >&2
  exit 1
fi
grep -q "$PREFIX/include/lfsmr/lfsmr.h" "$DEPS"
# The consumer's telemetryRoundTrip must have pulled the installed
# telemetry header (directly and through the umbrella).
grep -q "$PREFIX/include/lfsmr/telemetry.h" "$DEPS"

echo "install check OK"
