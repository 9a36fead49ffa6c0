#!/usr/bin/env bash
# Determinism gate: the engine must produce bit-identical output across runs.
#
# Three properties, all byte-compared on stdout (docs/TESTING.md):
#  1. Default-schedule stability: fig6 (put latency/bandwidth) and fig10
#     (stencil scaling) run twice must match.
#  2. Seed stability: the same benchmarks under a perturbed schedule
#     (DCUDA_PERTURB_SEED) must replay bit-identically — a perturbation is a
#     pure function of its seed, never of hidden state.
#  3. Faulty-seed stability: the same seed with a lossy fabric armed
#     (DCUDA_FAULT_DROP; net/fault.h go-back-N recovery) must also replay
#     bit-identically — fault coins come from the same seeded streams.
#  4. Executor invariance (docs/PERF.md, "Parallel engine"): the sharded
#     engine run with DCUDA_SHARDS=4 executor groups and DCUDA_THREADS=2
#     worker threads must be byte-identical to the serial run — for the
#     clean, perturbed, and faulty schedules alike — and so must a run on
#     the default executor (every core). The window protocol's ordering is
#     a function of the logical schedule only, never of the executor layout.
#
# Every reference run is pinned to DCUDA_THREADS=1: the engine's default
# runs every core, and "matches serial" must compare against a serial run,
# not against another parallel one. The runs are independent, so they
# execute concurrently (up to min(nproc, 4) at a time) and are compared
# once all of them finished; a run that exits non-zero fails the gate.
#  5. Cluster pass (docs/CLUSTER.md): the gang scheduler's lifecycle
#     transcript (bench/cluster_traffic --transcript, all three policies on
#     one multi-tenant fabric) must be bit-identical across runs and under
#     the 4-group/2-thread executor — job placement, backfill decisions and
#     completion order are functions of the logical schedule only.
#  6. dpd3d pass (docs/TESTING.md): the skewed-density DPD schedule
#     fingerprint (bench/fig_dpd3d --fingerprint: bitwise physics checksum,
#     halo totals, rebalance tickets, virtual elapsed time) must be stable
#     across runs and byte-identical between the serial and the
#     4-group/2-thread executors — for the clean schedule, a perturbed
#     schedule, and with the eager/aggregation protocol switched on
#     (--eager), which reroutes every small halo/ticket put through the
#     batching path without being allowed to change any result.
#  7. Topology pass (docs/TOPOLOGY.md): the same benchmarks on a fat tree
#     with 2 NIC rails (DCUDA_TOPOLOGY=fattree DCUDA_RAILS=2) must be
#     stable across runs AND byte-identical between the serial and the
#     4-group/2-thread executors — multi-hop routes shrink the engine's
#     lookahead to the per-hop latency and the rail mux resequences at the
#     receiver, neither of which may depend on the executor layout.
#
# Wired into ctest as `determinism_fig_benches`.
#
# Usage: scripts/check_determinism.sh [build-dir]
# Env:   DCUDA_BENCH_ITERS   main-loop iterations (default 5, keeps ctest fast)
#        DCUDA_PERTURB_SEED  seed for the perturbed pass (default 3735928559)
#        DCUDA_FAULT_DROP    drop rate for the faulty pass (default 0.01)
set -euo pipefail

BUILD="${1:-build}"
export DCUDA_BENCH_ITERS="${DCUDA_BENCH_ITERS:-5}"
PERTURB_SEED="${DCUDA_PERTURB_SEED:-3735928559}"
FAULT_DROP="${DCUDA_FAULT_DROP:-0.01}"
# The serial reference executor; runs that test another executor override
# it (or unset it, for the default).
export DCUDA_THREADS=1
CORES="$(nproc 2> /dev/null || echo 1)"
JOBS=$(( CORES < 4 ? CORES : 4 ))

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
runs=()
launch() {  # launch <out-name> <command...>: queue one run, output to $tmp
  local out="$1"
  shift
  while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do wait -n || true; done
  ( rc=0; "$@" > "$tmp/$out" 2> "$tmp/$out.err" || rc=$?
    echo "$rc" > "$tmp/$out.rc" ) &
  runs+=("$out")
}

compare() {  # compare <label> <file1> <file2>
  if cmp -s "$2" "$3"; then
    echo "OK   $1"
  else
    echo "FAIL $1" >&2
    diff "$2" "$3" >&2 || true
    status=1
  fi
}

# -- Launch every run ------------------------------------------------------
PAR=(env DCUDA_SHARDS=4 DCUDA_THREADS=2)
DEFAULT=(env -u DCUDA_THREADS)
SEED=(env DCUDA_PERTURB_SEED="$PERTURB_SEED")
FAULT=(env DCUDA_PERTURB_SEED="$PERTURB_SEED" DCUDA_FAULT_DROP="$FAULT_DROP")
TOPO=(env DCUDA_TOPOLOGY=fattree DCUDA_RAILS=2)

for name in fig6_put_bandwidth fig10_stencil_scaling; do
  bin="$BUILD/bench/$name"
  [ -x "$bin" ] || { echo "error: $bin not built" >&2; exit 1; }
  launch "$name.run1" "$bin"
  launch "$name.run2" "$bin"
  launch "$name.seed1" "${SEED[@]}" "$bin"
  launch "$name.seed2" "${SEED[@]}" "$bin"
  launch "$name.fault1" "${FAULT[@]}" "$bin"
  launch "$name.fault2" "${FAULT[@]}" "$bin"
  launch "$name.par" "${PAR[@]}" "$bin"
  launch "$name.par_seed" "${PAR[@]}" "${SEED[@]}" "$bin"
  launch "$name.par_fault" "${PAR[@]}" "${FAULT[@]}" "$bin"
  launch "$name.default" "${DEFAULT[@]}" "$bin"
  launch "$name.topo1" "${TOPO[@]}" "$bin"
  launch "$name.topo2" "${TOPO[@]}" "$bin"
  launch "$name.topo_par" "${TOPO[@]}" "${PAR[@]}" "$bin"
done

dbin="$BUILD/bench/fig_dpd3d"
if [ -x "$dbin" ]; then
  launch dpd3d.run1 "$dbin" --fingerprint
  launch dpd3d.run2 "$dbin" --fingerprint
  launch dpd3d.par "${PAR[@]}" "$dbin" --fingerprint
  launch dpd3d.default "${DEFAULT[@]}" "$dbin" --fingerprint
  launch dpd3d.seed1 "${SEED[@]}" "$dbin" --fingerprint
  launch dpd3d.seed2 "${SEED[@]}" "$dbin" --fingerprint
  launch dpd3d.par_seed "${PAR[@]}" "${SEED[@]}" "$dbin" --fingerprint
  launch dpd3d.eager1 "$dbin" --fingerprint --eager
  launch dpd3d.eager2 "$dbin" --fingerprint --eager
  launch dpd3d.eager_par "${PAR[@]}" "$dbin" --fingerprint --eager
else
  echo "warning: $dbin not built, skipping dpd3d pass" >&2
fi

cbin="$BUILD/bench/cluster_traffic"
if [ -x "$cbin" ]; then
  launch cluster.run1 "$cbin" --transcript
  launch cluster.run2 "$cbin" --transcript
  launch cluster.par "${PAR[@]}" "$cbin" --transcript
else
  echo "warning: $cbin not built, skipping cluster pass" >&2
fi

wait
for out in "${runs[@]}"; do
  rc="$(cat "$tmp/$out.rc")"
  if [ "$rc" -ne 0 ]; then
    echo "FAIL run $out exited with status $rc" >&2
    cat "$tmp/$out.err" >&2
    status=1
  fi
done

# -- Compare ---------------------------------------------------------------
for name in fig6_put_bandwidth fig10_stencil_scaling; do
  compare "$name: two runs bit-identical" "$tmp/$name.run1" "$tmp/$name.run2"
  compare "$name: perturbed seed $PERTURB_SEED replays bit-identically" \
          "$tmp/$name.seed1" "$tmp/$name.seed2"
  compare "$name: faulty seed (drop=$FAULT_DROP) replays bit-identically" \
          "$tmp/$name.fault1" "$tmp/$name.fault2"
  compare "$name: shards=4 threads=2 matches serial (clean)" \
          "$tmp/$name.run1" "$tmp/$name.par"
  compare "$name: shards=4 threads=2 matches serial (perturbed)" \
          "$tmp/$name.seed1" "$tmp/$name.par_seed"
  compare "$name: shards=4 threads=2 matches serial (faulty)" \
          "$tmp/$name.fault1" "$tmp/$name.par_fault"
  compare "$name: default executor ($CORES cores) matches serial" \
          "$tmp/$name.run1" "$tmp/$name.default"
  compare "$name: fattree+2rails two runs bit-identical" \
          "$tmp/$name.topo1" "$tmp/$name.topo2"
  compare "$name: fattree+2rails shards=4 threads=2 matches serial" \
          "$tmp/$name.topo1" "$tmp/$name.topo_par"
done

# -- dpd3d pass (docs/TESTING.md) ------------------------------------------
if [ -x "$dbin" ]; then
  compare "fig_dpd3d: skew fingerprint bit-identical across runs" \
          "$tmp/dpd3d.run1" "$tmp/dpd3d.run2"
  compare "fig_dpd3d: shards=4 threads=2 matches serial (clean)" \
          "$tmp/dpd3d.run1" "$tmp/dpd3d.par"
  compare "fig_dpd3d: default executor ($CORES cores) matches serial" \
          "$tmp/dpd3d.run1" "$tmp/dpd3d.default"
  compare "fig_dpd3d: perturbed seed $PERTURB_SEED replays bit-identically" \
          "$tmp/dpd3d.seed1" "$tmp/dpd3d.seed2"
  compare "fig_dpd3d: shards=4 threads=2 matches serial (perturbed)" \
          "$tmp/dpd3d.seed1" "$tmp/dpd3d.par_seed"
  compare "fig_dpd3d: eager-on fingerprint bit-identical across runs" \
          "$tmp/dpd3d.eager1" "$tmp/dpd3d.eager2"
  compare "fig_dpd3d: shards=4 threads=2 matches serial (eager on)" \
          "$tmp/dpd3d.eager1" "$tmp/dpd3d.eager_par"
  # The eager path may change the schedule (elapsed time) but never the
  # physics: the checksum field must agree between eager off and on.
  if [ "$(grep -o 'checksum=[^ ]*' "$tmp/dpd3d.run1")" = \
       "$(grep -o 'checksum=[^ ]*' "$tmp/dpd3d.eager1")" ]; then
    echo "OK   fig_dpd3d: eager on/off physics checksum identical"
  else
    echo "FAIL fig_dpd3d: eager protocol changed the physics checksum" >&2
    status=1
  fi
fi

# -- Cluster pass (docs/CLUSTER.md) ----------------------------------------
if [ -x "$cbin" ]; then
  compare "cluster_traffic: transcripts bit-identical across runs" \
          "$tmp/cluster.run1" "$tmp/cluster.run2"
  compare "cluster_traffic: shards=4 threads=2 matches serial" \
          "$tmp/cluster.run1" "$tmp/cluster.par"
fi
exit $status
