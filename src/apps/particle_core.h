#pragma once

// Core of the two particle mini-apps (§IV-C), the 2-D Fig. 9 app
// (apps/particles.h) and the 3-D DPD app (apps/dpd3d.h), in the
// Microfluidics-CC HaloExchanger shape: a dir2rank[27] table, a compacted
// active-neighbour list and per-direction buffers. It owns the neighbour
// geometry (the 2-D app is the degenerate gx x 1 x 1 grid using the +-x
// directions), the slot storage that device state and serial references
// share, the dCUDA and MPI-CUDA exchange steps, and the driver plumbing.
// Each app keeps its physics, seeding, sort-out geometry, halo pack rule and
// cost model, and states its own sequence of puts and MPI messages (part of
// its simulated result) through the payloads it hands the exchange steps.

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "baseline/mpi_cuda.h"
#include "cluster/cluster.h"
#include "dcuda/dcuda.h"
#include "sim/proc.h"

namespace dcuda::apps::particle_core {

// 27-direction index space: dir = (dx+1) + 3*(dy+1) + 9*(dz+1) with each
// offset in {-1, 0, +1}. kSelf (13) is the zero offset; opposite(d) mirrors
// all three axes.
inline constexpr int kDirs = 27;
inline constexpr int kSelf = 13;
inline constexpr int kMinusX = 12;
inline constexpr int kPlusX = 14;
inline constexpr int opposite(int dir) { return kDirs - 1 - dir; }
inline constexpr std::array<int, 3> dir_offset(int dir) {
  return {dir % 3 - 1, (dir / 3) % 3 - 1, dir / 9 - 1};
}

// Rank grid geometry: dimensions, cell <-> rank mapping (one cell per rank,
// global cell == global rank), the dir2rank table and the compacted active
// list.
struct Grid {
  int gx = 0, gy = 0, gz = 0;
  int cells() const { return gx * gy * gz; }
  std::array<int, 3> coords(int cell) const {
    return {cell / (gy * gz), (cell / gz) % gy, cell % gz};
  }
  int cell_at(int cx, int cy, int cz) const { return (cx * gy + cy) * gz + cz; }
  // Global cell (== global rank) of the neighbor in direction `dir`, or -1
  // outside the non-periodic domain.
  int dir2cell(int cell, int dir) const;
  // dir2rank[27] table for one cell: dir2cell for every direction, kSelf
  // mapped to the cell itself.
  std::array<int, kDirs> dir2rank(int cell) const;
  // Compacted active-neighbour directions (kSelf and out-of-domain excluded),
  // ascending.
  std::vector<int> active_dirs(int cell) const;
};

// One cell's neighbourhood: its dir2rank table and active directions.
struct Neighbourhood {
  Neighbourhood(const Grid& g, int c)
      : cell(c), dir2rank(g.dir2rank(c)), active(g.active_dirs(c)) {}
  int cell;
  std::array<int, kDirs> dir2rank;
  std::vector<int> active;
};

// Zeroed backing store: device memory, or host memory the arena owns.
struct Arena {
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    if (dev != nullptr) return dev->alloc<T>(n);
    host.emplace_back(n * sizeof(T));  // operator new aligns for any scalar
    return std::span<T>(reinterpret_cast<T*>(host.back().data()), n);
  }
  gpu::Device* dev = nullptr;
  std::vector<std::vector<std::byte>> host;
};

inline constexpr int kMaxFields = 4;
inline constexpr std::array<int, 1> kCellSlot{kSelf};
inline constexpr std::array<int, 2> kXDirs{kMinusX, kPlusX};
inline constexpr std::array<int, kDirs> kAllDirs = [] {
  std::array<int, kDirs> a{};
  for (int d = 0; d < kDirs; ++d) a[static_cast<std::size_t>(d)] = d;
  return a;
}();

// Per-(local cell, direction) particle records plus one counter per slot:
// one slot per direction in `dirs` for each local cell, `fields` arrays of
// `cap` records of `width` doubles (2-D: x, y, vx, vy as 1-wide fields; 3-D:
// one packed 6-wide field). A cell's own records use the direction kSelf.
// All devices share the layout, so local offsets address remote windows too.
class Slots {
 public:
  Slots() = default;
  Slots(Arena& arena, int cells, std::span<const int> dirs, int fields, int width,
        int cap);

  int cells() const { return cells_; }
  int fields() const { return fields_; }
  int width() const { return width_; }
  int cap() const { return static_cast<int>(stride_) / width_; }
  bool has(int dir) const { return slot_[static_cast<std::size_t>(dir)] > 0; }
  // Counter index of slot (cell, dir), and its first element in each field.
  std::size_t index(int cell, int dir) const {
    assert(has(dir));
    return static_cast<std::size_t>(cell) * per_cell_ +
           static_cast<std::size_t>(slot_[static_cast<std::size_t>(dir)] - 1);
  }
  std::size_t offset(int cell, int dir) const { return index(cell, dir) * stride_; }
  double* recs(int cell, int dir, int field = 0) const {
    return field_[static_cast<std::size_t>(field)].data() + offset(cell, dir);
  }
  // The first `n` records of slot (cell, dir) in field `field`.
  std::span<double> recs(int cell, int dir, int field, std::int32_t n) const {
    return {recs(cell, dir, field), static_cast<std::size_t>(n) * width_};
  }
  std::int32_t& count(int cell, int dir) const { return count_[index(cell, dir)]; }
  std::span<double> field(int f) const { return field_[static_cast<std::size_t>(f)]; }
  std::span<std::int32_t> counts() const { return count_; }
  // Component k of record i (fields are laid out back to back in k).
  double component(int cell, int dir, int i, int k) const {
    return recs(cell, dir, k / width_)[static_cast<std::size_t>(i) * width_ + k % width_];
  }
  // Copies records [i, i + n) of slot (cell, dir) to [j, j + n) of slot
  // (to_cell, to_dir) of `to`, over `to`'s (leading) fields; may overlap.
  void copy(int cell, int dir, int i, std::int32_t n, const Slots& to, int to_cell,
            int to_dir, int j) const;

 private:
  std::array<std::span<double>, kMaxFields> field_{};
  std::span<std::int32_t> count_;
  std::array<std::int8_t, kDirs> slot_{};  // direction -> slot + 1, 0 absent
  int cells_ = 0, per_cell_ = 0, fields_ = 0, width_ = 0;
  std::size_t stride_ = 0;  // doubles per slot per field (cap * width)
};

// Sort-out skeleton: keeps the records of cell r with dir_of(i) == kSelf
// (stable) and moves every other record to outbox slot (r, dir_of(i)).
// Sets cell r's outbox counters; returns the number of movers.
template <typename DirOf>
std::int32_t sort_out(const Slots& cell, int r, const Slots& outbox, DirOf dir_of) {
  for (int d = 0; d < kDirs; ++d) {
    if (outbox.has(d)) outbox.count(r, d) = 0;
  }
  std::int32_t& n = cell.count(r, kSelf);
  std::int32_t keep = 0, moved = 0;
  for (int i = 0; i < n; ++i) {
    const int d = dir_of(i);
    if (d == kSelf) {
      cell.copy(r, kSelf, i, 1, cell, r, kSelf, keep++);
    } else {
      cell.copy(r, kSelf, i, 1, outbox, r, d, outbox.count(r, d)++);
      ++moved;
    }
  }
  n = keep;
  return moved;
}

// Appends the first `n` records of slot (c, dir) of `from` to cell r.
void append(const Slots& cell, int r, const Slots& from, int c, int dir, std::int32_t n);

// Arrival integration for local cell r of `node`, active directions
// ascending: a neighbour on the same node hands over its `local` outbox slot
// directly (when `local` is given); other arrivals drain the inbox slot.
// Returns the arrivals.
std::int32_t integrate(const Grid& grid, int node, const Slots& cell, int r,
                       const Slots* local, const Slots& inbox);

// Per-node device state, one cell per rank: `make(arena, first_cell)` for
// every node, the arena allocating from that node's device.
template <typename Make>
auto per_node(Cluster& cluster, int cells_per_node, Make make) {
  assert(cells_per_node == cluster.ranks_per_device() && "one cell per rank");
  std::vector<decltype(make(std::declval<Arena&>(), 0))> devs;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    Arena arena{&cluster.device(n), {}};
    devs.push_back(make(arena, n * cells_per_node));
  }
  return devs;
}

// Result reduction over the cells of `stores` (records: `dims` positions,
// then `dims` velocities): particle total, checksum (sum of |position|),
// momentum, and the z momentum and peak occupancy where Result has them.
template <typename Result, typename Store>
Result tally(std::span<const Store> stores, int dims, sim::Dur elapsed) {
  Result res;
  res.elapsed = elapsed;
  std::array<double, 3> momentum{};
  std::int32_t peak = 0;
  for (const Store& s : stores) {
    for (int c = 0; c < s.cell.cells(); ++c) {
      const std::int32_t n = s.cell.count(c, kSelf);
      res.total_particles += n;
      peak = std::max(peak, n);
      for (int i = 0; i < n; ++i) {
        double abs_sum = 0.0;
        for (int a = 0; a < dims; ++a) abs_sum += std::abs(s.cell.component(c, kSelf, i, a));
        res.checksum += abs_sum;
        for (int a = 0; a < dims; ++a) {
          momentum[static_cast<std::size_t>(a)] += s.cell.component(c, kSelf, i, dims + a);
        }
      }
    }
  }
  res.momentum_x = momentum[0];
  res.momentum_y = momentum[1];
  if constexpr (requires { res.momentum_z; }) {
    res.momentum_z = momentum[2];
    res.max_cell_count = peak;
  }
  return res;
}

// Windows over one slot set: one per field array, then the counters.
struct SlotWindows {
  std::array<Window, kMaxFields> field{};
  Window count;
};
sim::Proc<SlotWindows> open_windows(Context& ctx, const Slots& s);
sim::Proc<void> close_windows(Context& ctx, SlotWindows& w);

// Payload puts toward one direction, in issue order: the i-th lands in
// field i of the target's slot.
struct Payloads {
  std::array<std::span<const double>, kMaxFields> src{};
  int n = 0;
  void add(std::span<const double> s) { src[static_cast<std::size_t>(n++)] = s; }
};

// The dCUDA per-direction exchange step into slot set `dst` (windows `w`):
// per active direction d, the payload puts `fill(d, out)` lists into the
// target's slot (target, opposite(d)), then one notified put of the counter
// `fill` returns. Then flush and wait for one notification per direction.
template <typename Fill>
sim::Proc<void> exchange(Context& ctx, const Neighbourhood& nb, const Slots& dst,
                         const SlotWindows& w, int tag, Fill fill) {
  for (int d : nb.active) {
    const int t = nb.dir2rank[static_cast<std::size_t>(d)];
    const int lt = t % dst.cells();
    Payloads out;
    const auto* count = fill(d, out);
    for (int f = 0; f < out.n; ++f) {
      co_await put(ctx, w.field[static_cast<std::size_t>(f)], t, dst.offset(lt, opposite(d)),
                   out.src[static_cast<std::size_t>(f)]);
    }
    co_await put_notify(ctx, w.count, t, dst.index(lt, opposite(d)),
                        std::span(count, 1), tag);
  }
  co_await flush(ctx);
  co_await wait_notifications(ctx, w.count, kAnySource, tag,
                              static_cast<int>(nb.active.size()));
}

// One (local cell, direction) pair whose neighbour lives on another node,
// with the record counts it sends and receives.
struct Boundary {
  int r = 0;          // local cell
  int cell = 0;       // global cell
  int dir = 0;
  int peer_cell = 0;  // global cell of the neighbour
  int peer_node = 0;
  std::int32_t sent = 0;
  std::int32_t received = 0;
};

// The MPI-CUDA device-boundary exchange into slot set `dst`, over every
// Boundary in (local cell, direction) order: first the counts
// (`*send_count(r, dir)` out, tagged `count_tag(sender cell, sender dir)`),
// then the sized payloads `payload(boundary, requests)` posts; dst's counter
// takes the received count. The app's copy kernel does the intra-device part.
template <typename SendCount, typename CountTag, typename Payload>
sim::Proc<void> boundary_exchange(baseline::HostProgram& hp, const Grid& grid,
                                  const Slots& dst, SendCount send_count,
                                  CountTag count_tag, Payload payload) {
  const int rpd = dst.cells();
  const int node = hp.node();
  std::vector<Boundary> edge;
  for (int r = 0; r < rpd; ++r) {
    const int gc = node * rpd + r;
    for (int d : grid.active_dirs(gc)) {
      const int t = grid.dir2cell(gc, d);
      if (t / rpd != node) edge.push_back({r, gc, d, t, t / rpd, *send_count(r, d), 0});
    }
  }
  std::vector<mpi::Request> counts;
  for (Boundary& b : edge) {
    counts.push_back(hp.isend(b.peer_node, count_tag(b.cell, b.dir),
                              gpu::mem_ref(send_count(b.r, b.dir), 1)));
    counts.push_back(hp.irecv(b.peer_node, count_tag(b.peer_cell, opposite(b.dir)),
                              gpu::mem_ref(&b.received, 1)));
  }
  co_await mpi::wait_all(std::move(counts));
  std::vector<mpi::Request> payloads;
  for (const Boundary& b : edge) {
    payload(b, payloads);
    dst.count(b.r, b.dir) = b.received;
  }
  co_await mpi::wait_all(std::move(payloads));
}

}  // namespace dcuda::apps::particle_core
