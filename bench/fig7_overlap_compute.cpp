// Figure 7: overlap of computation and communication for a compute-bound
// workload (Newton-Raphson square root). Paper shape: good — but not
// perfect — overlap: full ~ max(compute, exchange) plus a little, because
// the notification matcher itself is compute-heavy (§IV-B).

#include "bench/overlap.h"

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  bench::header("Figure 7", "overlap for square root calculation (Newton-Raphson)");
  const int rounds = bench::iterations(40);
  bench::row({"newton_iters_per_exchange", "compute_and_exchange_ms", "compute_only_ms",
              "halo_exchange_ms"});
  // Trace the 8-units point: compute and exchange are comparable there, so
  // the overlap story is clearest.
  for (const auto& p :
       bench::overlap_sweep(8, bench::Workload::kNewton, rounds, 8, "newton x8")) {
    bench::row({bench::fmt(p.units, "%.0f"), bench::fmt(p.full_ms),
                bench::fmt(p.compute_ms), bench::fmt(p.exchange_ms)});
  }
  bench::trace_sink().finish();
  return 0;
}
