// Figure 8: overlap of computation and communication for a memory
// bandwidth-bound workload (memory-to-memory copy). Paper shape: perfect
// overlap — full == max(compute, exchange) throughout.

#include "bench/overlap.h"

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  bench::header("Figure 8", "overlap for memory-to-memory copy");
  const int rounds = bench::iterations(40);
  bench::row({"copy_iters_per_exchange", "compute_and_exchange_ms", "compute_only_ms",
              "halo_exchange_ms"});
  for (const auto& p :
       bench::overlap_sweep(8, bench::Workload::kMemcopy, rounds, 8, "memcopy x8")) {
    bench::row({bench::fmt(p.units, "%.0f"), bench::fmt(p.full_ms),
                bench::fmt(p.compute_ms), bench::fmt(p.exchange_ms)});
  }
  bench::trace_sink().finish();
  return 0;
}
