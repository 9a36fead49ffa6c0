#pragma once

// JSON rendering of the parallel engine's window telemetry
// (sim::Simulation::window_stats, docs/OBSERVABILITY.md), shared by
// micro_engine and fig10_stencil_scaling --window-stats; bench_perf.sh
// records it in BENCH_engine.json.

#include <cstdio>

#include "sim/simulation.h"

namespace dcuda::bench {

inline void print_window_stats(std::FILE* out,
                               const sim::Simulation::WindowStats& w) {
  std::fprintf(out,
               "{\"windows\": %llu, \"busy_shard_windows\": %llu, "
               "\"events\": %llu, \"events_per_window\": %.1f, "
               "\"events_per_busy_shard_window\": %.1f, \"barrier_wait_s\": [",
               static_cast<unsigned long long>(w.windows),
               static_cast<unsigned long long>(w.busy_shard_windows),
               static_cast<unsigned long long>(w.events), w.events_per_window(),
               w.events_per_busy_shard_window());
  for (std::size_t i = 0; i < w.barrier_wait_s.size(); ++i) {
    std::fprintf(out, "%s%.4f", i ? ", " : "", w.barrier_wait_s[i]);
  }
  std::fprintf(out, "]}");
}

}  // namespace dcuda::bench
