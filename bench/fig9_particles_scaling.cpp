// Figure 9: weak scaling of the particle simulation (constant cells and
// particles per node; reduced cutoff interactions -> memory bound). Series:
// dCUDA, MPI-CUDA, and the halo-exchange time measured by the MPI-CUDA
// variant (runtime switch: exchange only).
//
// Paper shape: both variants similar up to ~3 nodes; beyond that MPI-CUDA's
// scaling cost tracks the halo-exchange time while dCUDA hides part of it
// (not all — the simulation develops load imbalance).
//
// --fingerprint prints one deterministic line per variant at 1..3 nodes
// (virtual elapsed nanos, particle total, bitwise checksum and momentum);
// golden file tests/golden/particles2d.golden.

#include <cstring>

#include "apps/particles.h"
#include "bench/common.h"

namespace {

void fingerprint(const dcuda::apps::particles::Config& cfg) {
  using namespace dcuda;
  for (int nodes : {1, 2, 3}) {
    for (const char* variant : {"dcuda", "mpi_cuda", "mpi_cuda_exchange"}) {
      apps::particles::Config vc = cfg;
      vc.compute = std::strcmp(variant, "mpi_cuda_exchange") != 0;
      Cluster c({.machine = bench::machine(nodes), .ranks_per_device = vc.cells_per_node});
      const apps::particles::Result r = std::strcmp(variant, "dcuda") == 0
                                            ? apps::particles::run_dcuda(c, vc)
                                            : apps::particles::run_mpi_cuda(c, vc);
      std::printf(
          "particles2d fingerprint variant=%s nodes=%d ranks=%d iters=%d "
          "elapsed_ns=%.0f particles=%lld checksum=%.17g mom=%.17g,%.17g\n",
          variant, nodes, nodes * vc.cells_per_node, vc.iterations,
          sim::to_nanos(r.elapsed), static_cast<long long>(r.total_particles),
          r.checksum, r.momentum_x, r.momentum_y);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  apps::particles::Config cfg;
  cfg.iterations = bench::iterations(20);
  // The paper reduces the cutoff below the cell width so that few particles
  // interact and the simulation becomes memory-bound / communication
  // sensitive (§IV-C).
  cfg.cutoff = 0.25;
  cfg.particles_per_cell = 60;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--fingerprint")) {
      fingerprint(cfg);
      return 0;
    }
  }
  bench::header("Figure 9", "weak scaling of the particle simulation");
  const double scale = 100.0 / cfg.iterations;  // report per-100-iteration ms
  bench::row({"nodes", "dcuda_ms", "mpi_cuda_ms", "halo_exchange_ms"});
  for (int nodes : {1, 2, 3, 4, 6, 8}) {
    // Trace the largest run: overlap (or its absence) is most visible there.
    const bool trace = nodes == 8 && bench::trace_sink().enabled();
    apps::particles::Result d, m, h;
    {
      Cluster c({.machine = bench::machine(nodes), .ranks_per_device = cfg.cells_per_node});
      if (trace) c.tracer().enable();
      d = apps::particles::run_dcuda(c, cfg);
      if (trace) bench::trace_sink().add("dCUDA 8 nodes", c.tracer());
    }
    {
      Cluster c({.machine = bench::machine(nodes), .ranks_per_device = cfg.cells_per_node});
      if (trace) c.tracer().enable();
      m = apps::particles::run_mpi_cuda(c, cfg);
      if (trace) bench::trace_sink().add("MPI-CUDA 8 nodes", c.tracer());
    }
    {
      apps::particles::Config hx = cfg;
      hx.compute = false;
      Cluster c({.machine = bench::machine(nodes), .ranks_per_device = cfg.cells_per_node});
      h = apps::particles::run_mpi_cuda(c, hx);
    }
    bench::row({bench::fmt(nodes, "%.0f"), bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(sim::to_millis(m.elapsed) * scale),
                bench::fmt(sim::to_millis(h.elapsed) * scale)});
  }
  bench::trace_sink().finish();
  return 0;
}
