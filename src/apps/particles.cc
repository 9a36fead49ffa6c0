#include "apps/particles.h"

#include <cassert>
#include <cmath>
#include <span>

#include "apps/particle_core.h"
#include "baseline/mpi_cuda.h"
#include "sim/random.h"

namespace dcuda::apps::particles {

namespace {

namespace core = particle_core;
using core::kMinusX;
using core::kPlusX;
using core::kSelf;
using core::Slots;

// Record fields of the cell, inbox and outbox slots (one double each); halo
// slots hold the positions (kX, kY) only.
enum Field : int { kX = 0, kY = 1, kVx = 2, kVy = 3 };
constexpr int kFields = 4;
constexpr int kHaloFields = 2;

// A view of one cell's (or halo slot's) particle storage.
struct CellView {
  double* x = nullptr;
  double* y = nullptr;
  double* vx = nullptr;
  double* vy = nullptr;
  std::int32_t count = 0;
};

CellView view(const Slots& s, int c, int dir) {
  const bool vel = s.fields() > kVx;
  return CellView{s.recs(c, dir, kX), s.recs(c, dir, kY),
                  vel ? s.recs(c, dir, kVx) : nullptr,
                  vel ? s.recs(c, dir, kVy) : nullptr, s.count(c, dir)};
}

// Deterministic initial particle placement for global cell `gc`. The same
// particles appear regardless of decomposition, so all variants (and the
// serial reference) start identically.
void init_cell(const Config& cfg, int gc, CellView v) {
  sim::Rng rng(cfg.seed ^ (0x9e37ull * static_cast<std::uint64_t>(gc + 1)));
  for (int i = 0; i < cfg.particles_per_cell; ++i) {
    v.x[i] = (gc + rng.next_double()) * cfg.cell_width;
    v.y[i] = rng.next_double() * cfg.domain_height;
    v.vx[i] = rng.uniform(-0.5, 0.5) * cfg.cell_width / 10.0;
    v.vy[i] = rng.uniform(-0.5, 0.5) * cfg.cell_width / 10.0;
  }
}

// Short-range repulsive pair force on particle (xi, yi) from neighbors in
// `other`; accumulates into (fx, fy) and counts interactions scanned.
void accumulate_forces(const Config& cfg, double xi, double yi, const CellView& other,
                       const double* self_x, int self_idx, double& fx, double& fy) {
  for (int j = 0; j < other.count; ++j) {
    if (other.x == self_x && j == self_idx) continue;
    const double dx = xi - other.x[j];
    const double dy = yi - other.y[j];
    const double r2 = dx * dx + dy * dy;
    if (r2 >= cfg.cutoff * cfg.cutoff || r2 == 0.0) continue;
    const double r = std::sqrt(r2);
    const double f = cfg.force_k * (1.0 - r / cfg.cutoff) / r;
    fx += f * dx;
    fy += f * dy;
  }
}

// Phase 2 for one cell: forces from {left, self, right} then simplified
// Verlet update with reflecting walls. Returns pair-scan count (cost model).
std::int64_t force_and_update(const Config& cfg, CellView self, const CellView& left,
                              const CellView& right, double domain_width) {
  std::int64_t scans = 0;
  // Forces use the pre-update positions: compute all accelerations first.
  std::vector<double> ax(static_cast<size_t>(self.count), 0.0);
  std::vector<double> ay(static_cast<size_t>(self.count), 0.0);
  for (int i = 0; i < self.count; ++i) {
    double fx = 0.0, fy = 0.0;
    accumulate_forces(cfg, self.x[i], self.y[i], left, self.x, i, fx, fy);
    accumulate_forces(cfg, self.x[i], self.y[i], self, self.x, i, fx, fy);
    accumulate_forces(cfg, self.x[i], self.y[i], right, self.x, i, fx, fy);
    ax[static_cast<size_t>(i)] = fx;
    ay[static_cast<size_t>(i)] = fy;
    scans += left.count + self.count + right.count;
  }
  for (int i = 0; i < self.count; ++i) {
    self.vx[i] += ax[static_cast<size_t>(i)] * cfg.dt;
    self.vy[i] += ay[static_cast<size_t>(i)] * cfg.dt;
    self.x[i] += self.vx[i] * cfg.dt;
    self.y[i] += self.vy[i] * cfg.dt;
    if (self.x[i] < 0.0) {
      self.x[i] = -self.x[i];
      self.vx[i] = -self.vx[i];
    }
    if (self.x[i] > domain_width) {
      self.x[i] = 2.0 * domain_width - self.x[i];
      self.vx[i] = -self.vx[i];
    }
    if (self.y[i] < 0.0) {
      self.y[i] = -self.y[i];
      self.vy[i] = -self.vy[i];
    }
    if (self.y[i] > cfg.domain_height) {
      self.y[i] = 2.0 * cfg.domain_height - self.y[i];
      self.vy[i] = -self.vy[i];
    }
  }
  return scans;
}

// Phase 2 for local cell r of a store, reading its two halo slots.
std::int64_t force_and_update(const Config& cfg, const core::Grid& grid, const Slots& cell,
                              const Slots& halo, int r) {
  return force_and_update(cfg, view(cell, r, kSelf), view(halo, r, kMinusX),
                          view(halo, r, kPlusX), grid.gx * cfg.cell_width);
}

// Phase 3 for one cell: stable-compacts stayers, moves leavers to the -x/+x
// outboxes. Cell boundaries are [gc*cell_width, (gc+1)*cell_width). Returns
// the number of movers.
std::int32_t sort_out(const Config& cfg, const core::Grid& grid, int gc, const Slots& cell,
                      int r, const Slots& outbox) {
  const double lo = gc * cfg.cell_width, hi = (gc + 1) * cfg.cell_width;
  const double* x = cell.recs(r, kSelf, kX);
  return core::sort_out(cell, r, outbox, [&](int i) {
    int dir = kSelf;
    if (x[i] < lo) {
      assert(x[i] >= lo - cfg.cell_width && "particle hopped two cells");
      dir = kMinusX;
    } else if (x[i] >= hi) {
      assert(x[i] < hi + cfg.cell_width && "particle hopped two cells");
      dir = kPlusX;
    }
    assert(grid.dir2cell(gc, dir) >= 0 && "mover fell off the global domain");
    (void)grid;
    return dir;
  });
}

// Simulated per-iteration cost of one rank's cell (charged to the SM and the
// device memory system; the innermost force loop performs two memory
// accesses per scanned pair, §IV-C).
sim::Proc<void> charge_iteration(gpu::BlockCtx& blk, std::int64_t pair_scans,
                                 int particles, int moved) {
  const double scans = static_cast<double>(pair_scans);
  co_await blk.compute_flops(scans * 12.0 + particles * 10.0);
  co_await blk.mem_traffic(scans * 2.0 * sizeof(double) +
                           particles * 10.0 * sizeof(double) +
                           moved * 8.0 * sizeof(double));
}

// Particle storage of one device, or of the whole domain for the serial
// reference. Cells are rank-local (one cell per rank); every rank
// additionally owns two halo slots (copies of the neighboring cells'
// positions), two migration inboxes (parallel variants only) and two
// outboxes, one per +-x direction.
//
// NOTE (documented deviation): the paper overlaps the windows of shared
// memory ranks so that intra-device halo puts move no data. That leaves the
// force phase reading live neighbor positions, which races with the
// neighbor's position update. We keep dedicated halo slots per rank instead
// (intra-device halo puts become device-local copies), trading a little
// intra-device bandwidth for deterministic, validatable physics.
struct Store {
  Slots cell, halo, inbox, outbox;
};

Store make_store(core::Arena& arena, const Config& cfg, int cells, int first_cell,
                 bool inbox) {
  const int cap = cfg.capacity();
  Store s;
  s.cell = Slots(arena, cells, core::kCellSlot, kFields, 1, cap);
  s.halo = Slots(arena, cells, core::kXDirs, kHaloFields, 1, cap);
  if (inbox) s.inbox = Slots(arena, cells, core::kXDirs, kFields, 1, cap);
  s.outbox = Slots(arena, cells, core::kXDirs, kFields, 1, cap);
  for (int c = 0; c < cells; ++c) {
    init_cell(cfg, first_cell + c, view(s.cell, c, kSelf));
    s.cell.count(c, kSelf) = cfg.particles_per_cell;
  }
  return s;
}

std::vector<Store> make_devices(Cluster& cluster, const Config& cfg) {
  return core::per_node(cluster, cfg.cells_per_node, [&](core::Arena& arena, int first) {
    return make_store(arena, cfg, cfg.cells_per_node, first, true);
  });
}

// Copies the positions of local cell `from` into halo slot (c, dir);
// returns the count copied.
std::int32_t copy_halo(const Store& s, int c, int dir, int from) {
  const std::int32_t n = s.cell.count(from, kSelf);
  s.cell.copy(from, kSelf, 0, n, s.halo, c, dir, 0);
  return s.halo.count(c, dir) = n;
}

}  // namespace

Result reference(const Config& cfg, int num_nodes) {
  const core::Grid grid{cfg.cells_per_node * num_nodes, 1, 1};
  const int cells = grid.cells();
  core::Arena arena;
  const Store s = make_store(arena, cfg, cells, 0, false);

  // The parallel phase structure, on one store that spans the domain.
  for (int it = 0; it < cfg.iterations; ++it) {
    // 1) halo exchange: copy neighbor cells' positions.
    for (int c = 0; c < cells; ++c) {
      for (int d : grid.active_dirs(c)) copy_halo(s, c, d, grid.dir2cell(c, d));
    }
    // 2) force + update (all cells, reading halo copies).
    for (int c = 0; c < cells; ++c) force_and_update(cfg, grid, s.cell, s.halo, c);
    // 3) sort out movers.
    for (int c = 0; c < cells; ++c) sort_out(cfg, grid, c, s.cell, c, s.outbox);
    // 4+5) deliver and integrate (left arrivals first, then right).
    for (int c = 0; c < cells; ++c) core::integrate(grid, 0, s.cell, c, &s.outbox, s.inbox);
  }
  return core::tally<Result>(std::span(&s, 1), 2, 0.0);
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const int rpd = cluster.ranks_per_device();
  const core::Grid grid{cluster.num_nodes() * rpd, 1, 1};
  std::vector<Store> devs = make_devices(cluster, cfg);

  constexpr int kHaloTag = 1, kMigrateTag = 2;

  const sim::Dur elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const core::Neighbourhood nb(grid, comm_rank(ctx, kCommWorld));
    const int node_id = ctx.node->node();
    const int r = ctx.device_rank;
    Store& p = devs[static_cast<size_t>(node_id)];

    // One window per array (paper: "each rank registers one window per
    // array"). All ranks of a device register the same device-wide range.
    core::SlotWindows wh = co_await core::open_windows(ctx, p.halo);
    core::SlotWindows wib = co_await core::open_windows(ctx, p.inbox);

    for (int it = 0; it < cfg.iterations; ++it) {
      const std::int32_t my_count = p.cell.count(r, kSelf);

      // 1) halo exchange: my cell's x and y into the neighbors' halo slots,
      // one put each (zero-length ones included). The count put carries the
      // notification.
      if (cfg.exchange) {
        co_await core::exchange(ctx, nb, p.halo, wh, kHaloTag,
                                [&](int, core::Payloads& out) {
                                  for (int f = 0; f < kHaloFields; ++f) {
                                    out.add(p.cell.recs(r, kSelf, f, my_count));
                                  }
                                  return &p.cell.count(r, kSelf);
                                });
      }

      // 2) force computation and position update; 3) sort out movers into
      // the outboxes.
      std::int64_t scans = 0;
      std::int32_t moved = 0;
      if (cfg.compute) {
        scans = force_and_update(cfg, grid, p.cell, p.halo, r);
        moved = sort_out(cfg, grid, nb.cell, p.cell, r, p.outbox);
      }

      // 4) communicate movers into the neighbors' inboxes: x, y, vx, vy,
      // one put each (zero-length ones included), then the count.
      if (cfg.exchange) {
        co_await core::exchange(ctx, nb, p.inbox, wib, kMigrateTag,
                                [&](int d, core::Payloads& out) {
                                  const std::int32_t n = p.outbox.count(r, d);
                                  for (int f = 0; f < kFields; ++f) {
                                    out.add(p.outbox.recs(r, d, f, n));
                                  }
                                  return &p.outbox.count(r, d);
                                });
      }

      // 5) integrate arrivals (left inbox first, then right — the same
      // order as the serial reference).
      const std::int32_t arrivals = core::integrate(grid, node_id, p.cell, r, nullptr, p.inbox);
      if (cfg.compute) {
        co_await charge_iteration(*ctx.block, scans, my_count, moved + arrivals);
      }
    }

    co_await barrier(ctx, kCommWorld);
    co_await core::close_windows(ctx, wh);
    co_await core::close_windows(ctx, wib);
  });
  return core::tally<Result>(std::span<const Store>(devs), 2, elapsed);
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int rpd = cluster.ranks_per_device();
  const core::Grid grid{cluster.num_nodes() * rpd, 1, 1};
  std::vector<Store> devs = make_devices(cluster, cfg);

  const sim::Dur elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    baseline::HostProgram hp(cluster.device(n), cluster.mpi(n));
    Store& p = devs[static_cast<size_t>(n)];
    auto& dev = cluster.device(n);
    const gpu::LaunchConfig lc{rpd, 128, 26};
    std::vector<std::int64_t> scans(static_cast<size_t>(rpd), 0);
    std::vector<std::int32_t> particles(static_cast<size_t>(rpd), 0);
    // Host-side mirrors of the bookkeeping counters (fetched every iteration).
    std::vector<std::int32_t> host_counts(static_cast<size_t>(rpd));
    std::vector<std::int32_t> host_obcounts(p.outbox.counts().size());
    // Device-boundary payloads into slot set `to` (halo: x, y of the cell
    // itself; migration: all four outbox fields), one message per field,
    // zero-length ones included. The count went first under `tag`.
    auto payload = [&](const Slots& from, const Slots& to, int tag) {
      return [&, from, to, tag](const core::Boundary& b, std::vector<mpi::Request>& pend) {
        const int src_dir = from.has(b.dir) ? b.dir : kSelf;
        for (int f = 0; f < to.fields(); ++f) {
          pend.push_back(hp.isend(b.peer_node, tag + 1 + f,
                                  dev.ref(from.recs(b.r, src_dir, f, b.sent))));
        }
        for (int f = 0; f < to.fields(); ++f) {
          pend.push_back(hp.irecv(b.peer_node, tag + 1 + f,
                                  dev.ref(to.recs(b.r, b.dir, f, b.received))));
        }
      };
    };

    for (int it = 0; it < cfg.iterations; ++it) {
      // Bookkeeping counters to the host (the paper calls this out as an
      // MPI-CUDA overhead: D2H fetch every iteration).
      co_await hp.copy(gpu::mem_ref(std::span<std::int32_t>(host_counts)),
                       dev.ref(p.cell.counts()));

      if (cfg.exchange) {
        // 1) halo exchange at the device boundary: the count, then x and y
        // (zero-length included) per direction.
        const int tag = 100 + it;
        co_await core::boundary_exchange(
            hp, grid, p.halo, [&](int r, int) { return &host_counts[static_cast<size_t>(r)]; },
            [&](int, int) { return tag; }, payload(p.cell, p.halo, tag));

        // Intra-device halos: copy neighbor cells into the halo slots.
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          for (int d : grid.active_dirs(n * rpd + r)) {
            const int t = grid.dir2cell(n * rpd + r, d);
            if (t / rpd != n) continue;  // device edge: MPI filled it
            const std::int32_t cnt = copy_halo(p, r, d, t % rpd);
            co_await blk.mem_traffic(4.0 * cnt * sizeof(double));
          }
        }, "halo");
      }

      // 2) force + update kernel.
      if (cfg.compute) {
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          particles[static_cast<size_t>(r)] = p.cell.count(r, kSelf);
          scans[static_cast<size_t>(r)] = force_and_update(cfg, grid, p.cell, p.halo, r);
          co_await blk.compute_flops(static_cast<double>(scans[static_cast<size_t>(r)]) * 12.0);
          co_await blk.mem_traffic(static_cast<double>(scans[static_cast<size_t>(r)]) * 2.0 *
                                   sizeof(double));
        }, "force");

        // 3) sort kernel: movers into outboxes.
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          sort_out(cfg, grid, n * rpd + r, p.cell, r, p.outbox);
          co_await blk.mem_traffic(static_cast<double>(p.cell.count(r, kSelf)) * 8.0 *
                                   sizeof(double));
        }, "sort");
      }

      if (cfg.exchange) {
        // 4) migrate across the device boundary: fetch the outbox counters
        // from the device first (the per-iteration D2H the paper calls out),
        // then the count and x, y, vx, vy per direction.
        co_await hp.copy(gpu::mem_ref(std::span<std::int32_t>(host_obcounts)),
                         dev.ref(p.outbox.counts()));
        const int tag = 500 + it;
        co_await core::boundary_exchange(
            hp, grid, p.inbox,
            [&](int r, int d) { return &host_obcounts[p.outbox.index(r, d)]; },
            [&](int, int) { return tag; }, payload(p.outbox, p.inbox, tag));
      }

      // 5) integrate arrivals (intra-device movers come straight from the
      // neighbor outboxes; device-edge inbox slots were filled by MPI), left
      // first, then right (matches dCUDA and the reference).
      co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
        const int r = blk.block_id();
        const std::int32_t arrivals = core::integrate(grid, n, p.cell, r, &p.outbox, p.inbox);
        co_await blk.mem_traffic(arrivals * 8.0 * sizeof(double) +
                                 particles[static_cast<size_t>(r)] * 2.0 *
                                     sizeof(double));
      }, "integrate");
    }
  });
  return core::tally<Result>(std::span<const Store>(devs), 2, elapsed);
}

}  // namespace dcuda::apps::particles
