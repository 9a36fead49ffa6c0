#include "apps/particle_core.h"

#include <cstring>

namespace dcuda::apps::particle_core {

int Grid::dir2cell(int cell, int dir) const {
  const std::array<int, 3> c = coords(cell);
  const std::array<int, 3> o = dir_offset(dir);
  const int cx = c[0] + o[0], cy = c[1] + o[1], cz = c[2] + o[2];
  if (cx < 0 || cx >= gx || cy < 0 || cy >= gy || cz < 0 || cz >= gz) return -1;
  return cell_at(cx, cy, cz);
}

std::array<int, kDirs> Grid::dir2rank(int cell) const {
  std::array<int, kDirs> out;
  for (int d = 0; d < kDirs; ++d) {
    out[static_cast<std::size_t>(d)] = d == kSelf ? cell : dir2cell(cell, d);
  }
  return out;
}

std::vector<int> Grid::active_dirs(int cell) const {
  std::vector<int> out;
  for (int d = 0; d < kDirs; ++d) {
    if (d != kSelf && dir2cell(cell, d) >= 0) out.push_back(d);
  }
  return out;
}

Slots::Slots(Arena& arena, int cells, std::span<const int> dirs, int fields, int width,
             int cap)
    : cells_(cells),
      per_cell_(static_cast<int>(dirs.size())),
      fields_(fields),
      width_(width),
      stride_(static_cast<std::size_t>(cap) * static_cast<std::size_t>(width)) {
  assert(fields >= 1 && fields <= kMaxFields);
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    slot_[static_cast<std::size_t>(dirs[i])] = static_cast<std::int8_t>(i + 1);
  }
  const std::size_t slots = static_cast<std::size_t>(cells) * dirs.size();
  for (int f = 0; f < fields; ++f) {
    field_[static_cast<std::size_t>(f)] = arena.alloc<double>(slots * stride_);
  }
  count_ = arena.alloc<std::int32_t>(slots);
}

void Slots::copy(int cell, int dir, int i, std::int32_t n, const Slots& to, int to_cell,
                 int to_dir, int j) const {
  assert(to.fields_ <= fields_ && to.width_ == width_);
  const std::size_t w = static_cast<std::size_t>(width_);
  for (int f = 0; f < to.fields_; ++f) {
    std::memmove(to.recs(to_cell, to_dir, f) + static_cast<std::size_t>(j) * w,
                 recs(cell, dir, f) + static_cast<std::size_t>(i) * w,
                 static_cast<std::size_t>(n) * w * sizeof(double));
  }
}

void append(const Slots& cell, int r, const Slots& from, int c, int dir, std::int32_t n) {
  std::int32_t& count = cell.count(r, kSelf);
  assert(count + n <= cell.cap() && "cell overflow: increase capacity_factor");
  assert(from.fields() == cell.fields());
  from.copy(c, dir, 0, n, cell, r, kSelf, count);
  count += n;
}

std::int32_t integrate(const Grid& grid, int node, const Slots& cell, int r,
                       const Slots* local, const Slots& inbox) {
  const int rpd = cell.cells();
  std::int32_t arrivals = 0;
  for (int d : grid.active_dirs(node * rpd + r)) {
    const int t = grid.dir2cell(node * rpd + r, d);
    if (local != nullptr && t / rpd == node) {
      const std::int32_t n = local->count(t % rpd, opposite(d));
      append(cell, r, *local, t % rpd, opposite(d), n);
      arrivals += n;
    } else {
      std::int32_t& n = inbox.count(r, d);
      append(cell, r, inbox, r, d, n);
      arrivals += n;
      n = 0;
    }
  }
  return arrivals;
}

sim::Proc<SlotWindows> open_windows(Context& ctx, const Slots& s) {
  SlotWindows w;
  for (int f = 0; f < s.fields(); ++f) {
    w.field[static_cast<std::size_t>(f)] = co_await win_create(ctx, kCommWorld, s.field(f));
  }
  w.count = co_await win_create(ctx, kCommWorld, s.counts());
  co_return w;
}

sim::Proc<void> close_windows(Context& ctx, SlotWindows& w) {
  for (Window& f : w.field) {
    if (f.valid()) co_await win_free(ctx, f);
  }
  co_await win_free(ctx, w.count);
}

}  // namespace dcuda::apps::particle_core
