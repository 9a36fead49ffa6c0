#!/usr/bin/env bash
# Golden-file regression gate: the stdout of `<bin> [args...]` must be
# byte-identical to <golden> under the default (unperturbed) schedule. Any
# engine or app change that shifts the canonical event interleaving, a
# simulated time or a physics checksum shows up here as a diff. The ctest
# gates using it:
#
#   fig1_schedule_golden  bench/fig1_schedule_trace --summary
#   dpd3d_skew_golden     bench/fig_dpd3d --fingerprint
#   particles2d_golden    bench/fig9_particles_scaling --fingerprint
#
# Regenerate a golden only when the change is intentional
# (docs/TESTING.md), with the same environment this script uses:
#
#   env -u DCUDA_PERTURB_SEED -u DCUDA_BENCH_ITERS -u DCUDA_DPD3D_PPC \
#     build/bench/fig_dpd3d --fingerprint > tests/golden/dpd3d_skew.golden
#
# Usage: scripts/check_golden.sh <golden> <bin> [args...]
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 <golden> <bin> [args...]" >&2; exit 2; }
GOLDEN="$1"
BIN="$2"
shift 2

[ -x "$BIN" ] || { echo "error: $BIN not built" >&2; exit 1; }
[ -f "$GOLDEN" ] || { echo "error: $GOLDEN missing" >&2; exit 1; }

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# The golden run is the canonical schedule: keep perturbation and scale
# environment out of it.
env -u DCUDA_PERTURB_SEED -u DCUDA_BENCH_ITERS -u DCUDA_DPD3D_PPC \
    "$BIN" "$@" > "$tmp"

name="$(basename "$BIN") $*"
if cmp -s "$tmp" "$GOLDEN"; then
  echo "OK   $name matches $GOLDEN"
else
  echo "FAIL $name drifted from $GOLDEN" >&2
  diff "$GOLDEN" "$tmp" >&2 || true
  exit 1
fi
