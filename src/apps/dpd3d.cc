#include "apps/dpd3d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>

#include "apps/particle_core.h"
#include "baseline/mpi_cuda.h"
#include "net/topology.h"
#include "sim/random.h"

namespace dcuda::apps::dpd3d {

namespace {

namespace core = particle_core;
using core::Slots;

// Packed particle record: x, y, z, vx, vy, vz.
constexpr int kRec = 6;
constexpr int kHaloTag = 11, kMigrateTag = 12, kTicketTag = 13;
// MPI tag spaces: base + sender_cell * kDirs + sender_dir. Cell counts stay
// far below 1 << 20 / kDirs, so the spaces never collide.
constexpr int kTagHaloCnt = 1 << 20, kTagHaloPay = 2 << 20;
constexpr int kTagMigCnt = 3 << 20, kTagMigPay = 4 << 20;

// A view of one cell's (or halo/inbox slot's) packed particle records.
struct View {
  double* rec = nullptr;
  std::int32_t count = 0;
};

struct Box {
  double lo[3] = {0, 0, 0};
  double hi[3] = {0, 0, 0};
};

Box box_of(const Config& cfg, const Grid& g, int cell) {
  const std::array<int, 3> c = g.coords(cell);
  Box b;
  for (int a = 0; a < 3; ++a) {
    b.lo[a] = c[static_cast<std::size_t>(a)] * cfg.cell_width;
    b.hi[a] = b.lo[a] + cfg.cell_width;
  }
  return b;
}

// Per-cell initial counts. kSkewed concentrates the same global total into a
// Gaussian blob near the low corner (the drift then sweeps it across the
// grid); largest-remainder rounding plus a deterministic per-cell clamp keep
// the total exact and every cell within half its storage capacity.
std::vector<int> initial_counts(const Config& cfg, const Grid& g) {
  const int cells = g.cells();
  std::vector<int> n(static_cast<std::size_t>(cells), cfg.particles_per_cell);
  if (cfg.density == Density::kUniform) return n;

  const std::int64_t total =
      static_cast<std::int64_t>(cells) * cfg.particles_per_cell;
  const double c0[3] = {0.3 * g.gx, 0.3 * g.gy, 0.3 * g.gz};
  std::vector<double> w(static_cast<std::size_t>(cells));
  double wsum = 0.0;
  for (int c = 0; c < cells; ++c) {
    const std::array<int, 3> cc = g.coords(c);
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      const double d = (cc[static_cast<std::size_t>(a)] + 0.5) - c0[a];
      d2 += d * d;
    }
    // The tiny floor keeps far cells populated (but near-empty) so skewed
    // runs still exercise every rank's protocol.
    w[static_cast<std::size_t>(c)] =
        std::exp(-d2 / (2.0 * cfg.skew_sigma * cfg.skew_sigma)) + 1e-4;
    wsum += w[static_cast<std::size_t>(c)];
  }
  // Largest-remainder rounding: decomposition-invariant and total-exact.
  std::vector<double> frac(static_cast<std::size_t>(cells));
  std::int64_t assigned = 0;
  for (int c = 0; c < cells; ++c) {
    const double quota = total * w[static_cast<std::size_t>(c)] / wsum;
    n[static_cast<std::size_t>(c)] = static_cast<int>(quota);
    frac[static_cast<std::size_t>(c)] = quota - n[static_cast<std::size_t>(c)];
    assigned += n[static_cast<std::size_t>(c)];
  }
  std::vector<int> order(static_cast<std::size_t>(cells));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double fa = frac[static_cast<std::size_t>(a)];
    const double fb = frac[static_cast<std::size_t>(b)];
    return fa != fb ? fa > fb : a < b;
  });
  for (std::int64_t i = 0; i < total - assigned; ++i) {
    ++n[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  // Clamp the blob peak to half the storage capacity (migration headroom),
  // pushing overflow to the least-loaded cells (lowest index on ties).
  const int limit = cfg.capacity() / 2;
  assert(static_cast<std::int64_t>(limit) * cells >= total &&
         "capacity_factor too small for the particle total");
  std::int64_t excess = 0;
  for (int c = 0; c < cells; ++c) {
    if (n[static_cast<std::size_t>(c)] > limit) {
      excess += n[static_cast<std::size_t>(c)] - limit;
      n[static_cast<std::size_t>(c)] = limit;
    }
  }
  while (excess > 0) {
    int argmin = -1;
    for (int c = 0; c < cells; ++c) {
      if (n[static_cast<std::size_t>(c)] >= limit) continue;
      if (argmin < 0 ||
          n[static_cast<std::size_t>(c)] < n[static_cast<std::size_t>(argmin)]) {
        argmin = c;
      }
    }
    assert(argmin >= 0);
    ++n[static_cast<std::size_t>(argmin)];
    --excess;
  }
  return n;
}

// Packs the particles of `cell` that must be shipped toward `dir` into
// `out`, in storage order; returns the record count.
int pack_halo(const Config& cfg, const Grid& g, int cell, const double* rec,
              std::int32_t count, int dir, double* out) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    const double* p = &rec[static_cast<std::size_t>(i) * kRec];
    if (!ship_to_dir(cfg, g, cell, dir, p[0], p[1], p[2])) continue;
    std::memcpy(&out[static_cast<std::size_t>(n) * kRec], p, kRec * sizeof(double));
    ++n;
  }
  return n;
}

// Geometry side of the halo oracle: every record in slot (cell, dir) must
// lie inside the sender's box and satisfy the sender-side ship predicate.
std::int64_t check_halo_slot(const Config& cfg, const Grid& g, int cell, int dir,
                             const View& v) {
  const int sender = g.dir2cell(cell, dir);
  if (sender < 0) return v.count;  // data from outside the domain
  const Box sb = box_of(cfg, g, sender);
  constexpr double kEps = 1e-9;
  std::int64_t bad = 0;
  for (int i = 0; i < v.count; ++i) {
    const double* p = &v.rec[static_cast<std::size_t>(i) * kRec];
    bool in_box = true;
    for (int a = 0; a < 3; ++a) {
      in_box = in_box && p[a] >= sb.lo[a] - kEps && p[a] <= sb.hi[a] + kEps;
    }
    if (!in_box || !ship_to_dir(cfg, g, sender, opposite(dir), p[0], p[1], p[2])) {
      ++bad;
    }
  }
  return bad;
}

// DPD force computation + Euler update with reflecting walls. `nb[kSelf]`
// must alias (rec, count); the accumulation order — directions ascending,
// records in slot order — is identical in every variant, so results are
// bitwise comparable.
std::int64_t force_and_update(const Config& cfg, const std::array<View, kDirs>& nb,
                              double* rec, std::int32_t count, const double L[3]) {
  const double rc = cfg.cutoff, rc2 = rc * rc;
  std::int64_t scans = 0;
  std::vector<double> acc(static_cast<std::size_t>(count) * 3, 0.0);
  for (int i = 0; i < count; ++i) {
    const double* pi = &rec[static_cast<std::size_t>(i) * kRec];
    double f[3] = {0.0, 0.0, 0.0};
    for (int d = 0; d < kDirs; ++d) {
      const View& o = nb[static_cast<std::size_t>(d)];
      for (int j = 0; j < o.count; ++j) {
        if (o.rec == rec && j == i) continue;
        const double* pj = &o.rec[static_cast<std::size_t>(j) * kRec];
        const double dx = pi[0] - pj[0];
        const double dy = pi[1] - pj[1];
        const double dz = pi[2] - pj[2];
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 >= rc2 || r2 == 0.0) continue;
        const double r = std::sqrt(r2);
        const double wgt = 1.0 - r / rc;
        // Conservative soft repulsion + deterministic dissipative drag
        // (stochastic DPD term omitted for bitwise reproducibility). The
        // combined coefficient is antisymmetric under i <-> j, so pairwise
        // momentum is conserved in the interior.
        const double dvx = pi[3] - pj[3];
        const double dvy = pi[4] - pj[4];
        const double dvz = pi[5] - pj[5];
        const double c = cfg.force_a * wgt / r -
                         cfg.force_gamma * wgt * wgt *
                             ((dx * dvx + dy * dvy + dz * dvz) / r2);
        f[0] += c * dx;
        f[1] += c * dy;
        f[2] += c * dz;
      }
      scans += o.count;
    }
    acc[static_cast<std::size_t>(i) * 3 + 0] = f[0];
    acc[static_cast<std::size_t>(i) * 3 + 1] = f[1];
    acc[static_cast<std::size_t>(i) * 3 + 2] = f[2];
  }
  for (int i = 0; i < count; ++i) {
    double* p = &rec[static_cast<std::size_t>(i) * kRec];
    for (int a = 0; a < 3; ++a) {
      p[3 + a] += acc[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(a)] *
                  cfg.dt;
      p[a] += p[3 + a] * cfg.dt;
      if (p[a] < 0.0) {
        p[a] = -p[a];
        p[3 + a] = -p[3 + a];
      }
      if (p[a] > L[a]) {
        p[a] = 2.0 * L[a] - p[a];
        p[3 + a] = -p[3 + a];
      }
    }
  }
  return scans;
}

// Sort-out geometry: movers leave into the per-direction outboxes (diagonal
// movers go directly to the diagonal neighbor). The break_compaction
// mutation drops the last record of every non-empty outbox — the compaction
// bug the conservation oracle must catch. Returns the number of movers.
std::int32_t sort_out(const Config& cfg, const Grid& g, int gc, const Slots& cell, int r,
                      const Slots& outbox) {
  const Box b = box_of(cfg, g, gc);
  const std::array<int, 3> c = g.coords(gc);
  const int dims[3] = {g.gx, g.gy, g.gz};
  const double* rec = cell.recs(r, kSelf);
  std::int32_t moved = core::sort_out(cell, r, outbox, [&](int i) {
    const double* p = &rec[static_cast<std::size_t>(i) * kRec];
    int off[3];
    for (int a = 0; a < 3; ++a) {
      assert(p[a] >= b.lo[a] - cfg.cell_width && p[a] < b.hi[a] + cfg.cell_width &&
             "particle hopped two cells");
      off[a] = p[a] < b.lo[a] ? -1 : (p[a] >= b.hi[a] ? 1 : 0);
      // A particle resting exactly on a domain wall stays in the edge cell.
      if (c[static_cast<std::size_t>(a)] + off[a] < 0 ||
          c[static_cast<std::size_t>(a)] + off[a] >= dims[a]) {
        off[a] = 0;
      }
    }
    const int d = (off[0] + 1) + 3 * (off[1] + 1) + 9 * (off[2] + 1);
    assert(g.dir2cell(gc, d) >= 0 && "mover fell off the global domain");
    return d;
  });
  if (cfg.break_compaction) {
    for (int d = 0; d < kDirs; ++d) {
      if (outbox.count(r, d) > 0) {
        --outbox.count(r, d);
        --moved;
      }
    }
  }
  return moved;
}

// Simulated per-iteration cost of one rank's cell (cf. particles.cc; the
// 3-D scan reads a full 6-double record per pair).
sim::Proc<void> charge_iteration(gpu::BlockCtx& blk, std::int64_t pair_scans,
                                 int particles, std::int64_t shipped, int moved) {
  const double scans = static_cast<double>(pair_scans);
  co_await blk.compute_flops(scans * 18.0 + particles * 12.0);
  co_await blk.mem_traffic(scans * kRec * sizeof(double) +
                           particles * 12.0 * sizeof(double) +
                           static_cast<double>(shipped + moved) * kRec *
                               sizeof(double));
}

// Particle storage of one device, or of the whole domain for the serial
// reference: cell records, halo and migration inbox slots (windowed), local
// halo-send and migration outbox buffers, and rebalance work tickets. Every
// slot set is (local cell, direction)-indexed with `cap` packed records per
// slot; the tickets share that indexing. Inboxes, send buffers and tickets
// exist on devices only.
struct Store {
  Slots cell, halo, inbox, hsend, outbox;
  std::span<std::int64_t> ticket, tksend;
};

Store make_store(core::Arena& arena, const Config& cfg, const Grid& g, int cells,
                 int first_cell, bool device) {
  const int cap = cfg.capacity();
  Store s;
  s.cell = Slots(arena, cells, core::kCellSlot, 1, kRec, cap);
  s.halo = Slots(arena, cells, core::kAllDirs, 1, kRec, cap);
  s.outbox = Slots(arena, cells, core::kAllDirs, 1, kRec, cap);
  if (device) {
    s.inbox = Slots(arena, cells, core::kAllDirs, 1, kRec, cap);
    s.hsend = Slots(arena, cells, core::kAllDirs, 1, kRec, cap);
    s.ticket = arena.alloc<std::int64_t>(s.halo.counts().size());
    s.tksend = arena.alloc<std::int64_t>(s.halo.counts().size());
  }
  for (int c = 0; c < cells; ++c) {
    const std::vector<std::array<double, kRec>> init =
        initial_particles(cfg, g, first_cell + c);
    assert(static_cast<int>(init.size()) <= cap);
    if (!init.empty()) {
      std::memcpy(s.cell.recs(c, kSelf), init.data(), init.size() * sizeof(init[0]));
    }
    s.cell.count(c, kSelf) = static_cast<std::int32_t>(init.size());
  }
  return s;
}

std::vector<Store> make_devices(Cluster& cluster, const Config& cfg, const Grid& g) {
  return core::per_node(cluster, cfg.cells_per_node, [&](core::Arena& arena, int first) {
    return make_store(arena, cfg, g, cfg.cells_per_node, first, true);
  });
}

// Forces and update for local cell r of a store: its own records plus its 26
// halo slots (read as empty while the exchange is off).
std::int64_t force_and_update(const Config& cfg, const Grid& g, const Store& s, int r) {
  const double L[3] = {g.gx * cfg.cell_width, g.gy * cfg.cell_width, g.gz * cfg.cell_width};
  std::array<View, kDirs> nb;
  for (int d = 0; d < kDirs; ++d) {
    nb[static_cast<std::size_t>(d)] =
        d == kSelf ? View{s.cell.recs(r, kSelf), s.cell.count(r, kSelf)}
                   : View{s.halo.recs(r, d), cfg.exchange ? s.halo.count(r, d) : 0};
  }
  return force_and_update(cfg, nb, s.cell.recs(r, kSelf), s.cell.count(r, kSelf), L);
}

// Per-iteration pair-scan imbalance (max over cells / mean over cells).
void push_imbalance(std::vector<double>& out, const std::int64_t* scans, int cells) {
  std::int64_t sum = 0, mx = 0;
  for (int c = 0; c < cells; ++c) {
    sum += scans[c];
    mx = std::max(mx, scans[c]);
  }
  out.push_back(sum > 0 ? static_cast<double>(mx) * cells / static_cast<double>(sum)
                        : 1.0);
}

// Per-cell accumulators: the halo oracle, offloaded work tickets and, with
// record_load, the pair scans per (iteration, cell). Each rank writes only
// its own cell, so the parallel executor lanes stay race-free; merge() sums
// them into the Result after the run.
struct CellLog {
  CellLog(const Config& cfg, const Grid& g)
      : halo_recv(static_cast<std::size_t>(g.cells())),
        halo_bad(halo_recv.size()),
        tickets(halo_recv.size()),
        scans(cfg.record_load ? static_cast<std::size_t>(cfg.iterations) * halo_recv.size() : 0) {}
  std::vector<std::int64_t> halo_recv, halo_bad, tickets, scans;

  // Halo oracle over the 26 halo slots of local cell r (global gc).
  void check_halo(const Config& cfg, const Grid& g, int gc, const Slots& halo, int r) {
    for (int d = 0; d < kDirs; ++d) {
      if (d == kSelf) continue;
      const View v{halo.recs(r, d), halo.count(r, d)};
      halo_recv[static_cast<std::size_t>(gc)] += v.count;
      halo_bad[static_cast<std::size_t>(gc)] += check_halo_slot(cfg, g, gc, d, v);
    }
  }
  void record(int it, int gc, std::int64_t s) {
    if (scans.empty()) return;
    scans[static_cast<std::size_t>(it) * halo_recv.size() + static_cast<std::size_t>(gc)] = s;
  }
  void merge(Result& res) const {
    const int cells = static_cast<int>(halo_recv.size());
    for (std::size_t c = 0; c < halo_recv.size(); ++c) {
      res.halo_received_total += halo_recv[c];
      res.halo_violations += halo_bad[c];
      res.work_tickets += tickets[c];
    }
    for (std::size_t o = 0; o < scans.size(); o += halo_recv.size()) {
      push_imbalance(res.iter_imbalance, &scans[o], cells);
    }
  }
};

Result collect(std::span<const Store> stores, const CellLog& log, sim::Dur elapsed) {
  Result res = core::tally<Result>(stores, 3, elapsed);
  log.merge(res);
  return res;
}

}  // namespace

Grid make_grid(const Config& cfg, int num_nodes) {
  const int n = num_nodes * cfg.cells_per_node;
  Grid g;
  if (cfg.grid_x > 0 || cfg.grid_y > 0 || cfg.grid_z > 0) {
    assert(cfg.grid_x > 0 && cfg.grid_y > 0 && cfg.grid_z > 0);
    g.gx = cfg.grid_x;
    g.gy = cfg.grid_y;
    g.gz = cfg.grid_z;
  } else {
    const std::array<int, 3> d = net::exact_grid_dims(n);
    g.gx = d[0];
    g.gy = d[1];
    g.gz = d[2];
  }
  assert(g.cells() == n && "rank grid must be a bijection onto the ranks");
  return g;
}

int initial_count(const Config& cfg, const Grid& grid, int cell) {
  return initial_counts(cfg, grid)[static_cast<std::size_t>(cell)];
}

bool ship_to_dir(const Config& cfg, const Grid& grid, int cell, int dir, double x,
                 double y, double z) {
  if (dir == kSelf || grid.dir2cell(cell, dir) < 0) return false;
  const Box b = box_of(cfg, grid, cell);
  const std::array<int, 3> o = dir_offset(dir);
  const double pos[3] = {x, y, z};
  for (int a = 0; a < 3; ++a) {
    // A particle exactly `cutoff` from the face cannot interact across it
    // (the force loop excludes r >= cutoff), so the band test is strict.
    if (o[static_cast<std::size_t>(a)] < 0 && !(pos[a] - b.lo[a] < cfg.cutoff)) {
      return false;
    }
    if (o[static_cast<std::size_t>(a)] > 0 && !(b.hi[a] - pos[a] < cfg.cutoff)) {
      return false;
    }
  }
  return true;
}

std::vector<std::array<double, 6>> initial_particles(const Config& cfg,
                                                     const Grid& grid, int cell) {
  const std::vector<int> counts = initial_counts(cfg, grid);
  const Box b = box_of(cfg, grid, cell);
  sim::Rng rng(cfg.seed ^ (0x9e37ull * static_cast<std::uint64_t>(cell + 1)));
  const double vscale = cfg.cell_width / 10.0;
  // Coherent drift direction for the skewed blob: mostly +x, so the dense
  // region marches across the longest grid axis.
  const double drift[3] = {1.0, 0.5, 0.25};
  std::vector<std::array<double, 6>> out(
      static_cast<std::size_t>(counts[static_cast<std::size_t>(cell)]));
  for (auto& p : out) {
    for (int a = 0; a < 3; ++a) {
      p[static_cast<std::size_t>(a)] = b.lo[a] + rng.next_double() * cfg.cell_width;
    }
    for (int a = 0; a < 3; ++a) {
      p[static_cast<std::size_t>(3 + a)] = rng.uniform(-0.5, 0.5) * vscale;
      if (cfg.density == Density::kSkewed) {
        p[static_cast<std::size_t>(3 + a)] +=
            cfg.skew_drift * cfg.cell_width * drift[a];
      }
    }
  }
  return out;
}

Result reference(const Config& cfg, int num_nodes) {
  const Grid g = make_grid(cfg, num_nodes);
  const int cells = g.cells();
  core::Arena arena;
  const Store s = make_store(arena, cfg, g, cells, 0, false);
  CellLog log(cfg, g);

  // The parallel phase structure, on one store that spans the domain.
  for (int it = 0; it < cfg.iterations; ++it) {
    // 1) halo exchange: pack the sender's band toward each neighbor.
    if (cfg.exchange) {
      for (int c = 0; c < cells; ++c) {
        for (int d : g.active_dirs(c)) {
          const int nb = g.dir2cell(c, d);
          s.halo.count(c, d) = pack_halo(cfg, g, nb, s.cell.recs(nb, kSelf),
                                         s.cell.count(nb, kSelf), opposite(d),
                                         s.halo.recs(c, d));
        }
        log.check_halo(cfg, g, c, s.halo, c);
      }
    }
    // 2) force + update.
    for (int c = 0; c < cells; ++c) {
      log.record(it, c, cfg.compute ? force_and_update(cfg, g, s, c) : 0);
    }
    // 3) sort out movers.
    if (cfg.compute) {
      for (int c = 0; c < cells; ++c) sort_out(cfg, g, c, s.cell, c, s.outbox);
    }
    // 4+5) deliver and integrate, directions ascending — the same order the
    // parallel variants drain their inbox slots in.
    if (cfg.exchange && cfg.compute) {
      for (int c = 0; c < cells; ++c) core::integrate(g, 0, s.cell, c, &s.outbox, s.inbox);
    }
  }
  return collect({&s, 1}, log, 0.0);
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const Grid grid = make_grid(cfg, cluster.num_nodes());
  std::vector<Store> devs = make_devices(cluster, cfg, grid);
  CellLog log(cfg, grid);

  const sim::Dur elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const core::Neighbourhood nb(grid, comm_rank(ctx, kCommWorld));
    const int gc = nb.cell;
    const int node_id = ctx.node->node();
    const int r = ctx.device_rank;
    Store& p = devs[static_cast<std::size_t>(node_id)];

    core::SlotWindows wh = co_await core::open_windows(ctx, p.halo);
    core::SlotWindows wib = co_await core::open_windows(ctx, p.inbox);
    core::SlotWindows wtk{.count = co_await win_create(ctx, kCommWorld, p.ticket)};

    for (int it = 0; it < cfg.iterations; ++it) {
      const std::int32_t my_count = p.cell.count(r, kSelf);
      std::int64_t shipped = 0;

      // 1) 27-direction halo exchange: per active direction, the packed band
      // as one payload put (skipped when empty) plus one notified count put
      // — the many-small-messages pattern the eager-aggregation path batches.
      if (cfg.exchange) {
        co_await core::exchange(ctx, nb, p.halo, wh, kHaloTag,
                                [&](int d, core::Payloads& out) {
                                  std::int32_t& n = p.hsend.count(r, d);
                                  n = pack_halo(cfg, grid, gc, p.cell.recs(r, kSelf),
                                                my_count, d, p.hsend.recs(r, d));
                                  shipped += n;
                                  if (n > 0) out.add(p.hsend.recs(r, d, 0, n));
                                  return &n;
                                });
        log.check_halo(cfg, grid, gc, p.halo, r);
      }

      // 2) force + update.
      const std::int64_t scans = cfg.compute ? force_and_update(cfg, grid, p, r) : 0;
      // Rebalance: ship work tickets so underloaded neighbours adopt part of
      // this rank's pair-scan cost. The halo counts double as the load map,
      // so the decision needs no extra communication; every rank sends one
      // (possibly zero) ticket per active direction, keeping wait counts
      // static. Physics stays bitwise identical — only the charge moves.
      std::int64_t charge_scans = scans;
      if (cfg.rebalance && cfg.exchange && cfg.compute) {
        double load_sum = my_count;
        for (int d : nb.active) load_sum += p.halo.count(r, d);
        const double avg = load_sum / (static_cast<int>(nb.active.size()) + 1);
        std::array<std::int64_t, kDirs> give{};
        std::int64_t offloaded = 0;
        if (my_count > cfg.rebalance_trigger * avg && my_count > 0 && scans > 0) {
          const std::int64_t target_scans =
              static_cast<std::int64_t>(scans * ((my_count - avg) / my_count));
          std::vector<int> under;
          for (int d : nb.active) {
            if (p.halo.count(r, d) < avg) under.push_back(d);
          }
          if (!under.empty()) {
            const std::int64_t share =
                target_scans / static_cast<std::int64_t>(under.size());
            std::int64_t rem = target_scans % static_cast<std::int64_t>(under.size());
            for (int d : under) {
              give[static_cast<std::size_t>(d)] = share + (rem > 0 ? 1 : 0);
              if (rem > 0) --rem;
              offloaded += give[static_cast<std::size_t>(d)];
            }
          }
        }
        co_await core::exchange(ctx, nb, p.halo, wtk, kTicketTag,
                                [&](int d, core::Payloads&) {
                                  std::int64_t& g = p.tksend[p.halo.index(r, d)];
                                  g = give[static_cast<std::size_t>(d)];
                                  if (g > 0) ++log.tickets[static_cast<std::size_t>(gc)];
                                  return &g;
                                });
        std::int64_t adopted = 0;
        for (int d : nb.active) adopted += p.ticket[p.halo.index(r, d)];
        charge_scans = scans - offloaded + adopted;
      }
      // The load curve tracks the *charged* scans, so with rebalance on it
      // shows the flattening that work adoption buys.
      log.record(it, gc, charge_scans);

      // 3) sort out movers into the per-direction outboxes.
      const std::int32_t moved =
          cfg.compute ? sort_out(cfg, grid, gc, p.cell, r, p.outbox) : 0;

      // 4) migrate movers into the neighbors' inboxes (empty payloads
      // skipped, the count always sent).
      if (cfg.exchange) {
        co_await core::exchange(ctx, nb, p.inbox, wib, kMigrateTag,
                                [&](int d, core::Payloads& out) {
                                  const std::int32_t n = p.outbox.count(r, d);
                                  if (n > 0) out.add(p.outbox.recs(r, d, 0, n));
                                  return &p.outbox.count(r, d);
                                });
      }

      // 5) integrate arrivals, directions ascending.
      const std::int32_t arrivals = core::integrate(grid, node_id, p.cell, r, nullptr, p.inbox);
      if (cfg.compute) {
        co_await charge_iteration(*ctx.block, charge_scans, my_count, shipped,
                                  moved + arrivals);
      }
    }

    co_await barrier(ctx, kCommWorld);
    co_await core::close_windows(ctx, wh);
    co_await core::close_windows(ctx, wib);
    co_await core::close_windows(ctx, wtk);
  });
  return collect(devs, log, elapsed);
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int rpd = cluster.ranks_per_device();
  const Grid grid = make_grid(cfg, cluster.num_nodes());
  std::vector<Store> devs = make_devices(cluster, cfg, grid);
  CellLog log(cfg, grid);

  const sim::Dur elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    baseline::HostProgram hp(cluster.device(n), cluster.mpi(n));
    Store& p = devs[static_cast<std::size_t>(n)];
    auto& dev = cluster.device(n);
    const gpu::LaunchConfig lc{rpd, 128, 26};

    // Host-side mirrors of the bookkeeping counters (the per-iteration D2H
    // fetches the paper calls out as MPI-CUDA overhead).
    std::vector<std::int32_t> host_counts(static_cast<std::size_t>(rpd), 0);
    std::vector<std::int32_t> host_hsc(p.hsend.counts().size(), 0);
    std::vector<std::int32_t> host_obc(p.outbox.counts().size(), 0);
    std::vector<std::int64_t> shipped(static_cast<std::size_t>(rpd), 0);
    std::vector<std::int32_t> particles(static_cast<std::size_t>(rpd), 0);

    // Device-boundary payloads: one message per non-empty slot.
    auto payload = [&](const Slots& from, const Slots& to, int tag_base) {
      return [&, from, to, tag_base](const core::Boundary& b, std::vector<mpi::Request>& pend) {
        if (b.sent > 0) {
          pend.push_back(hp.isend(b.peer_node, tag_base + b.cell * kDirs + b.dir,
                                  dev.ref(from.recs(b.r, b.dir, 0, b.sent))));
        }
        if (b.received > 0) {
          pend.push_back(hp.irecv(b.peer_node,
                                  tag_base + b.peer_cell * kDirs + opposite(b.dir),
                                  dev.ref(to.recs(b.r, b.dir, 0, b.received))));
        }
      };
    };

    for (int it = 0; it < cfg.iterations; ++it) {
      co_await hp.copy(gpu::mem_ref(std::span<std::int32_t>(host_counts)),
                       dev.ref(p.cell.counts()));

      if (cfg.exchange) {
        // 1a) pack kernel: every active direction's band into its send buffer.
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          const int gc = n * rpd + r;
          std::int64_t sh = 0;
          for (int d : grid.active_dirs(gc)) {
            const int cnt = pack_halo(cfg, grid, gc, p.cell.recs(r, kSelf),
                                      p.cell.count(r, kSelf), d, p.hsend.recs(r, d));
            p.hsend.count(r, d) = static_cast<std::int32_t>(cnt);
            sh += cnt;
          }
          shipped[static_cast<std::size_t>(r)] = sh;
          co_await blk.mem_traffic(static_cast<double>(sh) * kRec * sizeof(double));
        }, "pack");
        co_await hp.copy(gpu::mem_ref(std::span<std::int32_t>(host_hsc)),
                         dev.ref(p.hsend.counts()));

        // 1b) device-boundary counts, then sized payloads.
        co_await core::boundary_exchange(
            hp, grid, p.halo, [&](int r, int d) { return &host_hsc[p.hsend.index(r, d)]; },
            [](int c, int d) { return kTagHaloCnt + c * kDirs + d; },
            payload(p.hsend, p.halo, kTagHaloPay));

        // 1c) intra-device halos: copy the neighbor's packed send buffer.
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          const int gc = n * rpd + r;
          std::int64_t copied = 0;
          for (int d : grid.active_dirs(gc)) {
            const int t = grid.dir2cell(gc, d);
            if (t / rpd != n) continue;  // device edge: MPI filled it
            const std::int32_t cnt = p.hsend.count(t % rpd, opposite(d));
            p.hsend.copy(t % rpd, opposite(d), 0, cnt, p.halo, r, d, 0);
            copied += p.halo.count(r, d) = cnt;
          }
          co_await blk.mem_traffic(2.0 * static_cast<double>(copied) * kRec *
                                   sizeof(double));
        }, "halo");
      }

      // 2) force + update kernel (plus the halo oracle accumulation).
      co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
        const int r = blk.block_id();
        const int gc = n * rpd + r;
        if (cfg.exchange) log.check_halo(cfg, grid, gc, p.halo, r);
        std::int64_t sc = 0;
        if (cfg.compute) {
          particles[static_cast<std::size_t>(r)] = p.cell.count(r, kSelf);
          sc = force_and_update(cfg, grid, p, r);
          co_await blk.compute_flops(static_cast<double>(sc) * 18.0 +
                                     particles[static_cast<std::size_t>(r)] * 12.0);
          co_await blk.mem_traffic(static_cast<double>(sc) * kRec * sizeof(double) +
                                   particles[static_cast<std::size_t>(r)] * 12.0 *
                                       sizeof(double));
        }
        log.record(it, gc, sc);
      }, "force");

      // 3) sort kernel: movers into the per-direction outboxes.
      if (cfg.compute) {
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          sort_out(cfg, grid, n * rpd + r, p.cell, r, p.outbox);
          co_await blk.mem_traffic(static_cast<double>(p.cell.count(r, kSelf)) * kRec *
                                   sizeof(double));
        }, "sort");
      }

      if (cfg.exchange) {
        // 4) migrate across the device boundary (second D2H counter fetch).
        co_await hp.copy(gpu::mem_ref(std::span<std::int32_t>(host_obc)),
                         dev.ref(p.outbox.counts()));
        co_await core::boundary_exchange(
            hp, grid, p.inbox, [&](int r, int d) { return &host_obc[p.outbox.index(r, d)]; },
            [](int c, int d) { return kTagMigCnt + c * kDirs + d; },
            payload(p.outbox, p.inbox, kTagMigPay));

        // 5) integrate kernel: intra-device movers straight from the neighbor
        // outboxes, device-edge arrivals from the MPI-filled inbox slots —
        // the same data in the same ascending direction order either way.
        co_await hp.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          const std::int32_t arrivals =
              core::integrate(grid, n, p.cell, r, &p.outbox, p.inbox);
          co_await blk.mem_traffic(
              static_cast<double>(arrivals + shipped[static_cast<std::size_t>(r)]) *
                  kRec * sizeof(double) +
              particles[static_cast<std::size_t>(r)] * 2.0 * sizeof(double));
        }, "integrate");
      }
    }
  });
  return collect(devs, log, elapsed);
}

}  // namespace dcuda::apps::dpd3d
