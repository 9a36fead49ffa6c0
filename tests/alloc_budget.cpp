// Allocation budget of the notified-put path (docs/PERF.md, "Frame-free
// leaf operations").
//
// Replaces the global operator new with a counting one and runs a small
// overlap-style exchange: 2 nodes x 16 ranks, every rank put_notify-ing
// both ring neighbours per round, then waiting for its two notifications.
// Two runs that differ only in their round count (10 and 30) cancel every
// setup, warm-up and teardown allocation, so the difference divided by the
// extra puts is the steady-state cost of one notified put. The bound was
// fixed before measuring; with a coroutine frame per leaf operation the
// put path took about 33 allocations here.
//
// Exit 0 when allocations per put stay within the bound and no event
// callable fell back to the heap; 1 otherwise.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "dcuda/dcuda.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kNodes = 2;
constexpr int kRanksPerDevice = 16;
constexpr std::size_t kHalo = 1024;
constexpr double kMaxAllocsPerPut = 16.0;

struct RunResult {
  std::uint64_t news = 0;
  std::uint64_t puts = 0;
  std::uint64_t heap_fallbacks = 0;
};

RunResult run_exchange(int rounds) {
  using namespace dcuda;
  RunResult r;
  std::atomic<std::uint64_t> puts{0};
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  {
    ClusterSpec spec =
        ClusterSpec{}.with_nodes(kNodes).with_ranks_per_device(kRanksPerDevice);
    spec.machine.threads = 1;  // no worker pool: counts are exact
    Cluster c(spec);
    const int world = c.world_size();
    std::vector<std::span<std::byte>> src(static_cast<std::size_t>(world));
    std::vector<std::span<std::byte>> dst(static_cast<std::size_t>(world));
    for (int g = 0; g < world; ++g) {
      auto& dev = c.device(g / kRanksPerDevice);
      src[static_cast<std::size_t>(g)] = dev.alloc<std::byte>(kHalo);
      dst[static_cast<std::size_t>(g)] = dev.alloc<std::byte>(2 * kHalo);
    }
    c.run([&](Context& ctx) -> sim::Proc<void> {
      const int g = ctx.world_rank;
      const int n = ctx.world_size;
      const std::size_t gi = static_cast<std::size_t>(g);
      Window win = co_await win_create(ctx, kCommWorld, dst[gi]);
      for (int it = 0; it < rounds; ++it) {
        co_await put_notify(ctx, win, (g + n - 1) % n, kHalo, kHalo,
                            src[gi].data(), 0);
        co_await put_notify(ctx, win, (g + 1) % n, 0, kHalo, src[gi].data(),
                            0);
        puts.fetch_add(2, std::memory_order_relaxed);
        co_await wait_notifications(ctx, win, kAnySource, 0, 2);
      }
      co_await win_free(ctx, win);
    });
    r.heap_fallbacks = c.sim().pool_stats().heap_fallbacks;
  }
  r.news = g_news.load(std::memory_order_relaxed) - before;
  r.puts = puts.load();
  return r;
}

}  // namespace

int main() {
  const RunResult base = run_exchange(10);
  const RunResult full = run_exchange(30);
  const double extra_puts = static_cast<double>(full.puts - base.puts);
  const double per_put =
      (static_cast<double>(full.news) - static_cast<double>(base.news)) /
      extra_puts;
  std::printf(
      "{\"puts\": %llu, \"allocs_10_rounds\": %llu, \"allocs_30_rounds\": "
      "%llu, \"allocs_per_put\": %.2f, \"bound\": %.0f, "
      "\"heap_fallbacks\": %llu}\n",
      static_cast<unsigned long long>(full.puts - base.puts),
      static_cast<unsigned long long>(base.news),
      static_cast<unsigned long long>(full.news), per_put, kMaxAllocsPerPut,
      static_cast<unsigned long long>(base.heap_fallbacks + full.heap_fallbacks));
  bool ok = true;
  if (per_put > kMaxAllocsPerPut) {
    std::fprintf(stderr, "FAIL: %.2f allocations per notified put (bound %.0f)\n",
                 per_put, kMaxAllocsPerPut);
    ok = false;
  }
  if (base.heap_fallbacks + full.heap_fallbacks != 0) {
    std::fprintf(stderr, "FAIL: event callables fell back to the heap\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
