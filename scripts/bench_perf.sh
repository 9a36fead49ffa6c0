#!/usr/bin/env bash
# Wall-clock perf harness for the simulation engine (docs/PERF.md).
#
# Runs bench/micro_engine (engine events/sec, real time) and wall-clocks
# every fig* figure bench, then writes the combined record to a JSON file.
# Pass a previous run's JSON as BASELINE to embed it under "baseline" —
# that is how BENCH_engine.json carries before/after engine numbers.
#
# Also runs bench/micro_comm (simulated-time message rate of the eager/
# aggregated notified-put fast path, on vs off) and writes its record next
# to the engine one as BENCH_comm.json, failing if the small-message
# speedup drops below the 1.5x acceptance bar (docs/PERF.md).
#
# Runs bench/ablation_striping (rail striping vs a single NIC rail on a
# congested fat tree, docs/TOPOLOGY.md) and writes BENCH_net.json, failing
# if the pairwise striping speedup drops below 1.3x.
#
# And runs bench/ablation_local_notify --json (notified-put ping-pong
# latency, host-loop vs device-initiated backend, docs/BACKENDS.md) and
# writes BENCH_backend.json, failing if the device-initiated backend's
# local notified-put latency improvement drops below 3x.
#
# The parallel-engine lane (docs/PERF.md, "Parallel engine") runs the
# sharded micro_engine scenarios and the fig10 figure bench twice — with
# one worker thread and with DCUDA_BENCH_THREADS workers — and records the
# wall-clock speedup under "parallel", together with the engine's window
# telemetry (Simulation::window_stats: windows, busy shard-windows, events
# per window, barrier wait per worker) of every run. The >= 2x speedup
# acceptance bar on sharded_churn is decided on the median of 5 interleaved
# serial/parallel micro_engine pairs, all recorded under
# parallel.sharded_churn_gate. It is enforced only when the machine has at
# least 4 cores; on
# smaller hosts the record says so and the gate is skipped (a 1-core
# container cannot exhibit parallel speedup, only protocol overhead). A
# failed gate is recorded in BENCH_engine.json and fails the script after
# every record has been written.
#
# Usage: scripts/bench_perf.sh [build-dir] [out.json] [baseline.json]
#   build-dir     defaults to ./build
#   out.json      defaults to ./BENCH_engine.json (comm record goes to
#                 the same directory as out.json, named BENCH_comm.json)
#   baseline.json optional previous record to embed for comparison
# Env:
#   DCUDA_BENCH_ITERS    fig-bench main-loop iterations (default 10)
#   DCUDA_MICRO_SCALE    micro_engine repetition multiplier (default 1)
#   DCUDA_BENCH_THREADS  parallel-lane worker count (default min(nproc, 8))
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_engine.json}"
BASELINE="${3:-}"
export DCUDA_BENCH_ITERS="${DCUDA_BENCH_ITERS:-10}"

command -v jq > /dev/null || { echo "error: jq required" >&2; exit 1; }
[ -x "$BUILD/bench/micro_engine" ] || {
  echo "error: $BUILD/bench/micro_engine not built" >&2
  exit 1
}

echo "== micro_engine (wall clock, 1 worker thread) ==" >&2
micro_json="$(DCUDA_THREADS=1 "$BUILD/bench/micro_engine")"

fig_json="{}"
for b in "$BUILD"/bench/fig*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "== $name (iters=$DCUDA_BENCH_ITERS) ==" >&2
  t0="$(date +%s.%N)"
  "$b" > /dev/null
  t1="$(date +%s.%N)"
  sec="$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')"
  echo "   $sec s" >&2
  fig_json="$(jq --arg n "$name" --argjson s "$sec" '. + {($n): $s}' <<< "$fig_json")"
done

# -- Parallel-engine lane (docs/PERF.md, "Parallel engine") ---------------
CORES="$(nproc 2> /dev/null || echo 1)"
PAR="${DCUDA_BENCH_THREADS:-$(( CORES < 8 ? CORES : 8 ))}"
[ "$PAR" -ge 2 ] || PAR=2
echo "== micro_engine (wall clock, $PAR worker threads; $CORES cores) ==" >&2
micro_par_json="$(DCUDA_THREADS="$PAR" "$BUILD/bench/micro_engine")"

stats_err="$(mktemp)"
trap 'rm -f "$stats_err"' EXIT
fig10() {  # fig10 <threads> — prints {seconds, window_stats} of one run
  local t0 t1 sec
  t0="$(date +%s.%N)"
  DCUDA_THREADS="$1" "$BUILD/bench/fig10_stencil_scaling" --window-stats \
      > /dev/null 2> "$stats_err"
  t1="$(date +%s.%N)"
  sec="$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')"
  # null when the binary predates --window-stats (baseline builds)
  local ws
  ws="$(sed -n 's/^window_stats //p' "$stats_err")"
  jq -n --argjson s "$sec" --argjson w "${ws:-null}" \
      '{seconds: $s, window_stats: $w}'
}
echo "== fig10_stencil_scaling wall clock, 1 vs $PAR threads ==" >&2
fig10_serial="$(fig10 1)"
fig10_par="$(fig10 "$PAR")"
echo "   serial $(jq -r .seconds <<< "$fig10_serial")s  parallel $(jq -r .seconds <<< "$fig10_par")s" >&2

parallel_json="$(jq -n \
  --argjson cores "$CORES" --argjson threads "$PAR" \
  --argjson serial "$micro_json" --argjson par "$micro_par_json" \
  --argjson f10s "$fig10_serial" --argjson f10p "$fig10_par" \
  'def lane($n): {serial_events_per_sec: $serial.scenarios[$n].events_per_sec,
                  parallel_events_per_sec: $par.scenarios[$n].events_per_sec,
                  speedup: ($par.scenarios[$n].events_per_sec /
                            $serial.scenarios[$n].events_per_sec),
                  serial_window_stats: $serial.scenarios[$n].window_stats,
                  parallel_window_stats: $par.scenarios[$n].window_stats};
   {cores: $cores, worker_threads: $threads,
    sharded_churn: lane("sharded_churn"), cross_shard: lane("cross_shard"),
    sharded_resource_churn: lane("sharded_resource_churn"),
    fig10_stencil_scaling: {serial_seconds: $f10s.seconds,
                            parallel_seconds: $f10p.seconds,
                            speedup: ($f10s.seconds / $f10p.seconds),
                            serial_window_stats: $f10s.window_stats,
                            parallel_window_stats: $f10p.window_stats}}')"

gate_failed=0
if [ "$CORES" -ge 4 ]; then
  # One sharded_churn run lasts well under a second, and on a shared host a
  # single serial/parallel pair of the same binary swings from about 1.3x to
  # 2.1x. The gate therefore decides on the median speedup of GATE_RUNS
  # interleaved pairs; every pair is recorded under sharded_churn_gate.
  GATE_RUNS=5
  echo "== sharded_churn gate: $GATE_RUNS micro_engine pairs, 1 vs $PAR threads ==" >&2
  gate_runs="[]"
  for _ in $(seq "$GATE_RUNS"); do
    gs="$(DCUDA_THREADS=1 "$BUILD/bench/micro_engine")"
    gp="$(DCUDA_THREADS="$PAR" "$BUILD/bench/micro_engine")"
    gate_runs="$(jq --argjson s "$gs" --argjson p "$gp" \
      '. + [{serial_events_per_sec: $s.scenarios.sharded_churn.events_per_sec,
             parallel_events_per_sec: $p.scenarios.sharded_churn.events_per_sec,
             speedup: ($p.scenarios.sharded_churn.events_per_sec /
                       $s.scenarios.sharded_churn.events_per_sec)}]' \
      <<< "$gate_runs")"
  done
  pspeed="$(jq -r '[.[].speedup] | sort | .[length / 2 | floor]' <<< "$gate_runs")"
  echo "   speedups $(jq -c '[.[].speedup * 100 | round / 100]' <<< "$gate_runs"), median ${pspeed}x" >&2
  parallel_json="$(jq --argjson r "$gate_runs" --argjson m "$pspeed" \
    '. + {sharded_churn_gate: {runs: $r, median_speedup: $m}}' <<< "$parallel_json")"
  ok="$(awk -v s="$pspeed" 'BEGIN { print (s >= 2.0) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: sharded_churn median parallel speedup ${pspeed}x < 2x at $PAR threads" >&2
    gate_failed=1
    parallel_json="$(jq --arg s "$pspeed" \
      '. + {gate: ("enforced (>= 2x sharded_churn, median of 5): FAILED at " + $s + "x")}' \
      <<< "$parallel_json")"
  else
    echo "   median parallel speedup ${pspeed}x (bar: 2x at >= 4 cores)" >&2
    parallel_json="$(jq '. + {gate: "enforced (>= 2x sharded_churn, median of 5)"}' <<< "$parallel_json")"
  fi
else
  echo "   $CORES core(s): 2x speedup gate skipped (needs >= 4 cores)" >&2
  parallel_json="$(jq '. + {gate: "skipped: fewer than 4 cores"}' <<< "$parallel_json")"
fi

# -- Weak scaling (simulated time, deterministic) -------------------------
# 16 vs 64 nodes at constant per-node work: the simulated per-iteration
# time must stay nearly flat. 2x is a loose bar — the deterministic model
# sits far below it; crossing it means a serialization bug.
weak_json="null"
if [ -x "$BUILD/bench/weak_scaling" ]; then
  echo "== weak_scaling (16 vs 64 nodes, simulated) ==" >&2
  weak_json="$("$BUILD/bench/weak_scaling" --json)"
  flat="$(jq -r '.stencil_flatness_64v16' <<< "$weak_json")"
  ok="$(awk -v f="$flat" 'BEGIN { print (f <= 2.0) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: stencil 64-node weak-scaling blow-up ${flat}x > 2x" >&2
    exit 1
  fi
  echo "   stencil flatness ${flat}x, spmv $(jq -r '.spmv_flatness_64v16' <<< "$weak_json")x (bar: <= 2x)" >&2
fi

record="$(jq -n \
  --argjson iters "$DCUDA_BENCH_ITERS" \
  --argjson micro "$micro_json" \
  --argjson figs "$fig_json" \
  --argjson par "$parallel_json" \
  --argjson weak "$weak_json" \
  '{schema: "dcuda-bench-engine-v2", fig_bench_iters: $iters,
    micro_engine: $micro, fig_bench_seconds: $figs, parallel: $par,
    weak_scaling: $weak}')"

if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
  # Keep only the baseline's own measurements (strip nested baselines).
  record="$(jq --argjson base "$(jq 'del(.baseline, .speedup)' "$BASELINE")" \
    '. + {baseline: $base}' <<< "$record")"
  record="$(jq '. + {speedup: {events_per_sec:
    (.micro_engine.events_per_sec / .baseline.micro_engine.events_per_sec)}}' \
    <<< "$record")"
fi

printf '%s\n' "$record" > "$OUT"
echo "wrote $OUT" >&2

# -- Communication-protocol record (simulated time, deterministic) --------
COMM_OUT="$(dirname "$OUT")/BENCH_comm.json"
if [ -x "$BUILD/bench/micro_comm" ]; then
  echo "== micro_comm (eager/aggregated put fast path) ==" >&2
  comm_json="$("$BUILD/bench/micro_comm")"
  printf '%s\n' "$comm_json" > "$COMM_OUT"
  echo "wrote $COMM_OUT" >&2
  speedup="$(jq -r '.min_small_speedup' <<< "$comm_json")"
  ok="$(awk -v s="$speedup" 'BEGIN { print (s >= 1.5) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: small-message eager speedup $speedup < 1.5x" >&2
    exit 1
  fi
  echo "   small-message speedup ${speedup}x (bar: 1.5x)" >&2
else
  echo "warning: $BUILD/bench/micro_comm not built, skipping BENCH_comm.json" >&2
fi

# -- Topology/rail record (simulated time, deterministic) ------------------
NET_OUT="$(dirname "$OUT")/BENCH_net.json"
if [ -x "$BUILD/bench/ablation_striping" ]; then
  echo "== ablation_striping (rail striping vs single rail, fat tree) ==" >&2
  net_json="$("$BUILD/bench/ablation_striping")"
  printf '%s\n' "$net_json" > "$NET_OUT"
  echo "wrote $NET_OUT" >&2
  nspeed="$(jq -r '.striping_speedup' <<< "$net_json")"
  ok="$(awk -v s="$nspeed" 'BEGIN { print (s >= 1.3) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: rail-striping congestion speedup $nspeed < 1.3x" >&2
    exit 1
  fi
  echo "   striping speedup ${nspeed}x (bar: 1.3x)" >&2
else
  echo "warning: $BUILD/bench/ablation_striping not built, skipping BENCH_net.json" >&2
fi

# -- Runtime-backend record (simulated time, deterministic) ----------------
BACKEND_OUT="$(dirname "$OUT")/BENCH_backend.json"
if [ -x "$BUILD/bench/ablation_local_notify" ]; then
  echo "== ablation_local_notify (host-loop vs device-initiated backend) ==" >&2
  backend_json="$("$BUILD/bench/ablation_local_notify" --json)"
  printf '%s\n' "$backend_json" > "$BACKEND_OUT"
  echo "wrote $BACKEND_OUT" >&2
  bspeed="$(jq -r '.speedup' <<< "$backend_json")"
  ok="$(awk -v s="$bspeed" 'BEGIN { print (s >= 3.0) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: device-initiated notified-put speedup $bspeed < 3x" >&2
    exit 1
  fi
  echo "   notified-put speedup ${bspeed}x (bar: 3x)" >&2
else
  echo "warning: $BUILD/bench/ablation_local_notify not built, skipping BENCH_backend.json" >&2
fi

# -- 3-D DPD overlap record (simulated time, deterministic) ----------------
# bench/fig_dpd3d --json: the skewed-density DPD scenario on 4 nodes, dCUDA
# with work-adoption rebalance vs the plain MPI-CUDA fork-join baseline
# (docs/FIGURES.md "fig_dpd3d"). Gate: the overlapped notified-put variant,
# using its dCUDA-only ticket rebalance to shorten the blob rank's critical
# path, must hold >= 1.2x over the baseline under dynamic load imbalance,
# and the two variants' physics must match bitwise — a speedup bought with
# a wrong answer fails outright.
DPD3D_OUT="$(dirname "$OUT")/BENCH_dpd3d.json"
if [ -x "$BUILD/bench/fig_dpd3d" ]; then
  echo "== fig_dpd3d --json (skewed-density overlap, 4 nodes) ==" >&2
  dpd3d_json="$("$BUILD/bench/fig_dpd3d" --json)"
  printf '%s\n' "$dpd3d_json" > "$DPD3D_OUT"
  echo "wrote $DPD3D_OUT" >&2
  dspeed="$(jq -r '.speedup' <<< "$dpd3d_json")"
  dmatch="$(jq -r '.bitwise_match' <<< "$dpd3d_json")"
  if [ "$dmatch" != "true" ]; then
    echo "FAIL: dpd3d dCUDA and MPI-CUDA results diverged (bitwise_match=$dmatch)" >&2
    exit 1
  fi
  ok="$(awk -v s="$dspeed" 'BEGIN { print (s >= 1.2) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: dpd3d skewed-density dCUDA speedup $dspeed < 1.2x" >&2
    exit 1
  fi
  echo "   dpd3d skewed speedup ${dspeed}x (bar: 1.2x)" >&2
else
  echo "warning: $BUILD/bench/fig_dpd3d not built, skipping BENCH_dpd3d.json" >&2
fi

# -- Gang-scheduler record (simulated time, deterministic) -----------------
# bench/cluster_traffic: a 16-node multi-tenant fabric under a seeded
# open-arrival workload, once per policy (docs/CLUSTER.md). Gate: EASY
# backfill must recover >= 1.15x FIFO's machine utilization — below that
# the backfill pass has stopped sliding narrow jobs into the head's shadow.
CLUSTER_OUT="$(dirname "$OUT")/BENCH_cluster.json"
if [ -x "$BUILD/bench/cluster_traffic" ]; then
  echo "== cluster_traffic (gang-scheduling policies, 16 nodes) ==" >&2
  cluster_json="$("$BUILD/bench/cluster_traffic")"
  printf '%s\n' "$cluster_json" > "$CLUSTER_OUT"
  echo "wrote $CLUSTER_OUT" >&2
  fifo_util="$(jq -r '.policies.fifo.utilization' <<< "$cluster_json")"
  bf_util="$(jq -r '.policies.backfill.utilization' <<< "$cluster_json")"
  ratio="$(awk -v f="$fifo_util" -v b="$bf_util" 'BEGIN { printf "%.3f", b / f }')"
  ok="$(awk -v f="$fifo_util" -v b="$bf_util" 'BEGIN { print (b >= 1.15 * f) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: backfill utilization $bf_util < 1.15x fifo $fifo_util (ratio ${ratio}x)" >&2
    exit 1
  fi
  echo "   backfill/fifo utilization ${ratio}x (bar: 1.15x)" >&2
else
  echo "warning: $BUILD/bench/cluster_traffic not built, skipping BENCH_cluster.json" >&2
fi

if [ "$gate_failed" -ne 0 ]; then
  echo "FAIL: parallel-engine gate (see .parallel.gate in $OUT)" >&2
  exit 1
fi
