#!/usr/bin/env bash
# ThreadSanitizer lane for the parallel event engine (docs/TESTING.md).
#
# The engine runs every multi-node simulation on all cores by default, so
# worker threads really interleave shard execution, the window barrier and
# the cross-shard merge. This lane configures and builds the `tsan` preset
# (DCUDA_TSAN=ON, RelWithDebInfo, build-tsan/) and runs, at
# DCUDA_THREADS=4 with halt_on_error:
#   * engine_parallel_test — window mechanics and executor invariance;
#   * the `cluster` ctest label — gang scheduler and job lifecycle;
#   * FuzzSmoke — every fuzz workload across the executor lanes.
# Any data race reported by TSan fails the run. Not part of tier-1: the
# sanitizer build alone takes several minutes.
#
# Usage: scripts/check_tsan.sh
set -euo pipefail

cd "$(dirname "$0")/.."
CORES="$(nproc 2> /dev/null || echo 1)"
JOBS=$(( CORES < 4 ? CORES : 4 ))

cmake --preset tsan > /dev/null
cmake --build --preset tsan -j "$JOBS" \
    --target engine_parallel_test cluster_sched_test schedule_fuzz_test

export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
export DCUDA_THREADS=4
status=0
ctest --preset tsan -j "$JOBS" -R '^(EngineWindows|ClusterParallel)\.' || status=1
ctest --preset tsan -j "$JOBS" -L cluster || status=1
ctest --preset tsan -j "$JOBS" -R '^FuzzSmoke\.' || status=1
if [ "$status" -eq 0 ]; then
  echo "OK   tsan lane: no data races"
else
  echo "FAIL tsan lane" >&2
fi
exit $status
