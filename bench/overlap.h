#pragma once

// Shared driver for the overlap microbenchmarks (Figures 7 and 8): on 8
// nodes, every rank alternates a compute phase (N workload units) with a
// 1 kB halo exchange with its two neighbor ranks. Runtime switches disable
// either phase; perfect overlap means time(full) == max(time(compute),
// time(exchange)).

#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "dcuda/dcuda.h"

namespace dcuda::bench {

enum class Workload { kNewton, kMemcopy };

struct OverlapPoint {
  int units = 0;
  double full_ms = 0.0;
  double compute_ms = 0.0;
  double exchange_ms = 0.0;
};

// One workload unit per rank and compute iteration:
//  kNewton — 16384 double-precision divisions (Newton-Raphson square root,
//            compute bound);
//  kMemcopy — a 16 kB memory-to-memory copy (bandwidth bound).
inline sim::Proc<void> workload_unit(gpu::BlockCtx& blk, Workload w) {
  if (w == Workload::kNewton) {
    co_await blk.compute_flops(16384.0 * 10.0);
  } else {
    co_await blk.mem_traffic(2.0 * 16.0 * 1024.0);
  }
}

// One run of a point variant; `snapshot`, when set, receives a copy of the
// run's enabled tracer.
inline double run_overlap(int nodes, Workload w, int units_per_exchange,
                          bool compute, bool exchange, int rounds,
                          std::optional<sim::Tracer>* snapshot = nullptr) {
  Cluster c({.machine = machine(nodes)});
  if (snapshot != nullptr) c.tracer().enable();
  const int rpd = c.ranks_per_device();
  // Distinct halo buffers per rank so that intra-device puts move data too
  // (each exchange really transfers 1 kB per direction).
  constexpr std::size_t kHalo = 1024;
  std::vector<std::span<std::byte>> src(static_cast<size_t>(nodes * rpd));
  std::vector<std::span<std::byte>> dst(static_cast<size_t>(nodes * rpd));
  for (int n = 0; n < nodes; ++n) {
    for (int r = 0; r < rpd; ++r) {
      src[static_cast<size_t>(n * rpd + r)] = c.device(n).alloc<std::byte>(kHalo);
      dst[static_cast<size_t>(n * rpd + r)] = c.device(n).alloc<std::byte>(2 * kHalo);
    }
  }
  const double elapsed = c.run([&](Context& ctx) -> sim::Proc<void> {
    const int g = ctx.world_rank;
    const int size = ctx.world_size;
    Window win = co_await win_create(ctx, kCommWorld, dst[static_cast<size_t>(g)]);
    const bool has_l = g > 0, has_r = g + 1 < size;
    for (int it = 0; it < rounds; ++it) {
      if (compute) {
        for (int u = 0; u < units_per_exchange; ++u) {
          co_await workload_unit(*ctx.block, w);
        }
      }
      if (exchange) {
        auto mine = src[static_cast<size_t>(g)];
        if (has_l) co_await put_notify(ctx, win, g - 1, kHalo, kHalo, mine.data(), 0);
        if (has_r) co_await put_notify(ctx, win, g + 1, 0, kHalo, mine.data(), 0);
        co_await wait_notifications(ctx, win, kAnySource, 0,
                                    (has_l ? 1 : 0) + (has_r ? 1 : 0));
      }
    }
    co_await win_free(ctx, win);
  });
  if (snapshot != nullptr) snapshot->emplace(c.tracer());
  return sim::to_millis(elapsed);
}

// One Fig. 7/8 sweep over `units` of 0..32, a full and a compute-only run
// per point. The exchange-only run does not depend on the units, so it runs
// once and every point reports it. With --trace/--summary, the point at
// `traced_units` is snapshotted as "<trace_prefix>/full", "/compute" and
// "/exchange", in that order.
inline std::vector<OverlapPoint> overlap_sweep(int nodes, Workload w, int rounds,
                                               int traced_units,
                                               const std::string& trace_prefix) {
  const bool tracing = trace_sink().enabled();
  std::optional<sim::Tracer> exch_snap;
  std::optional<sim::Tracer> snap;
  const double exchange_ms =
      run_overlap(nodes, w, 0, false, true, rounds, tracing ? &exch_snap : nullptr);
  std::vector<OverlapPoint> points;
  for (int units : {0, 1, 2, 4, 8, 16, 32}) {
    const bool tr = tracing && units == traced_units;
    OverlapPoint p;
    p.units = units;
    p.full_ms = run_overlap(nodes, w, units, true, true, rounds, tr ? &snap : nullptr);
    if (tr) trace_sink().add(trace_prefix + "/full", *snap);
    p.compute_ms =
        run_overlap(nodes, w, units, true, false, rounds, tr ? &snap : nullptr);
    if (tr) {
      trace_sink().add(trace_prefix + "/compute", *snap);
      trace_sink().add(trace_prefix + "/exchange", *exch_snap);
    }
    p.exchange_ms = exchange_ms;
    points.push_back(p);
  }
  return points;
}

}  // namespace dcuda::bench
