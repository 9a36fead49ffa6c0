// Figure 10: weak scaling of the stencil program (COSMO-style horizontal
// diffusion; constant grid per device). Series: dCUDA, MPI-CUDA, and the
// halo-exchange time measured by the MPI-CUDA variant.
//
// Paper shape: similar single-node performance; in multi-node runs the
// MPI-CUDA scaling cost roughly equals the halo exchange time while dCUDA
// overlaps it completely (perfect load balance).
//
// --window-stats prints the parallel engine's window telemetry of the
// 8-node dCUDA run to stderr as one JSON line (docs/OBSERVABILITY.md).

#include <cstring>

#include "apps/stencil.h"
#include "bench/common.h"
#include "bench/window_stats.h"

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  bool window_stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--window-stats") == 0) window_stats = true;
  }
  bench::header("Figure 10", "weak scaling of the stencil program");
  apps::stencil::Config cfg;
  cfg.iterations = bench::iterations(20);
  const double scale = 100.0 / cfg.iterations;
  bench::row({"nodes", "dcuda_ms", "mpi_cuda_ms", "halo_exchange_ms"});
  for (int nodes : {1, 2, 3, 4, 6, 8}) {
    // Trace the largest run: dCUDA's fully hidden halo exchange vs the
    // MPI-CUDA serialization is the paper's headline claim.
    const bool trace = nodes == 8 && bench::trace_sink().enabled();
    apps::stencil::Result d, m, h;
    {
      Cluster c({.machine = bench::machine(nodes)});
      if (trace) c.tracer().enable();
      d = apps::stencil::run_dcuda(c, cfg);
      if (trace) bench::trace_sink().add("dCUDA 8 nodes", c.tracer());
      if (window_stats && nodes == 8) {
        std::fprintf(stderr, "window_stats ");
        bench::print_window_stats(stderr, c.sim().window_stats());
        std::fprintf(stderr, "\n");
      }
    }
    {
      Cluster c({.machine = bench::machine(nodes)});
      if (trace) c.tracer().enable();
      m = apps::stencil::run_mpi_cuda(c, cfg);
      if (trace) bench::trace_sink().add("MPI-CUDA 8 nodes", c.tracer());
    }
    {
      apps::stencil::Config hx = cfg;
      hx.compute = false;
      Cluster c({.machine = bench::machine(nodes)});
      h = apps::stencil::run_mpi_cuda(c, hx);
    }
    bench::row({bench::fmt(nodes, "%.0f"), bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(sim::to_millis(m.elapsed) * scale),
                bench::fmt(sim::to_millis(h.elapsed) * scale)});
  }
  bench::trace_sink().finish();
  return 0;
}
