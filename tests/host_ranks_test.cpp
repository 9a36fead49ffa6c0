// Tests for the host-ranks extension (§V): ranks running on the host CPU
// that communicate with device ranks through the same notified remote
// memory access machinery.

#include <gtest/gtest.h>

#include <mutex>

#include "cluster/cluster.h"
#include "dcuda/collectives.h"

namespace dcuda {
namespace {

using sim::Proc;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

TEST(HostRanks, IdentityAndSizes) {
  Cluster c({.machine = machine(2), .ranks_per_device = 3, .host_ranks = 2});
  EXPECT_EQ(c.world_size(), 10);
  std::vector<int> host_ranks_seen, device_ranks_seen;
  std::mutex mu;  // the two nodes' ranks run on different worker threads
  c.run(
      [&](Context& ctx) -> Proc<void> {  // device ranks
        EXPECT_FALSE(ctx.is_host_rank());
        EXPECT_GE(ctx.device_rank, 0);
        {
          std::lock_guard<std::mutex> lk(mu);
          device_ranks_seen.push_back(ctx.world_rank);
        }
        co_await barrier(ctx, kCommWorld);
      },
      [&](Context& ctx) -> Proc<void> {  // host ranks
        EXPECT_TRUE(ctx.is_host_rank());
        EXPECT_EQ(ctx.device_rank, -1);
        EXPECT_EQ(comm_size(ctx, kCommWorld), 10);
        {
          std::lock_guard<std::mutex> lk(mu);
          host_ranks_seen.push_back(ctx.world_rank);
        }
        co_await barrier(ctx, kCommWorld);
      });
  EXPECT_EQ(device_ranks_seen.size(), 6u);
  EXPECT_EQ(host_ranks_seen.size(), 4u);
  std::sort(host_ranks_seen.begin(), host_ranks_seen.end());
  EXPECT_EQ(host_ranks_seen, (std::vector<int>{3, 4, 8, 9}));
}

TEST(HostRanks, DeviceToHostPutSameNode) {
  Cluster c({.machine = machine(1), .ranks_per_device = 1, .host_ranks = 1});  // rank 0 = device, rank 1 = host
  auto dev_buf = c.device(0).alloc<int>(8);
  std::vector<int> host_buf(8, 0);
  for (int i = 0; i < 8; ++i) dev_buf[static_cast<size_t>(i)] = 5 * i;
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<int> mine = ctx.is_host_rank() ? std::span<int>(host_buf)
                                             : std::span<int>(dev_buf);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (!ctx.is_host_rank()) {
      co_await put_notify(ctx, w, 1, 0, 8 * sizeof(int), dev_buf.data(), 0);
    } else {
      co_await wait_notifications(ctx, w, 0, 0, 1);
      EXPECT_EQ(host_buf[7], 35);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(host_buf[3], 15);
}

TEST(HostRanks, HostToDeviceAcrossNodes) {
  Cluster c({.machine = machine(2), .ranks_per_device = 1, .host_ranks = 1});  // world: 0=dev@0, 1=host@0, 2=dev@1, 3=host@1
  auto dev_buf = c.device(1).alloc<double>(4);
  std::vector<double> host_buf{1.5, 2.5, 3.5, 4.5};
  std::fill(dev_buf.begin(), dev_buf.end(), 0.0);
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<double> mine =
        ctx.world_rank == 2 ? std::span<double>(dev_buf) : std::span<double>(host_buf);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (ctx.world_rank == 1) {  // host rank on node 0 sends to device rank on node 1
      co_await put_notify(ctx, w, 2, 0, 4 * sizeof(double), host_buf.data(), 7);
    } else if (ctx.world_rank == 2) {
      co_await wait_notifications(ctx, w, 1, 7, 1);
      EXPECT_DOUBLE_EQ(dev_buf[3], 4.5);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  EXPECT_DOUBLE_EQ(dev_buf[0], 1.5);
}

TEST(HostRanks, HostRankComputeChargesHostCpu) {
  Cluster c({.machine = machine(1), .ranks_per_device = 1, .host_ranks = 1});
  sim::Time host_compute_time = 0.0;
  c.run([&](Context& ctx) -> Proc<void> {
    if (ctx.is_host_rank()) {
      const sim::Time t0 = ctx.sim().now();
      co_await ctx.charge_compute(1e9);  // 1 GFlop
      host_compute_time = ctx.sim().now() - t0;
    }
    co_await barrier(ctx, kCommWorld);
  });
  // 1 GFlop at the single-thread cap (50/4 = 12.5 GF/s) = 80 ms.
  EXPECT_NEAR(host_compute_time, 0.08, 0.01);
}

TEST(HostRanks, GetFromHostWindow) {
  Cluster c({.machine = machine(1), .ranks_per_device = 2, .host_ranks = 1});
  std::vector<double> host_data{10.0, 20.0, 30.0};
  std::vector<double> landing(3, 0.0);
  auto dev_pad = c.device(0).alloc<double>(4);
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<double> mine = ctx.is_host_rank() ? std::span<double>(host_data)
                                                : std::span<double>(dev_pad);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (ctx.world_rank == 0) {  // device rank reads the host rank's window
      co_await get_notify(ctx, w, 2, 0, 3 * sizeof(double), landing.data(), 4);
      co_await wait_notifications(ctx, w, 2, 4, 1);
      EXPECT_DOUBLE_EQ(landing[2], 30.0);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

TEST(HostRanks, CollectivesSpanHostAndDeviceRanks) {
  Cluster c({.machine = machine(2), .ranks_per_device = 2, .host_ranks = 1});  // 6 ranks total, 2 host ranks
  const int world = c.world_size();
  std::vector<std::vector<double>> data(static_cast<size_t>(world));
  for (int g = 0; g < world; ++g) data[static_cast<size_t>(g)].assign(2, g + 1.0);
  c.run([&](Context& ctx) -> Proc<void> {
    Collectives coll = co_await Collectives::create(ctx, 2);
    co_await coll.allreduce_sum(ctx, data[static_cast<size_t>(ctx.world_rank)].data(), 2, 4);
    co_await coll.destroy(ctx);
  });
  const double want = world * (world + 1) / 2.0;
  for (int g = 0; g < world; ++g) {
    EXPECT_DOUBLE_EQ(data[static_cast<size_t>(g)][0], want) << "rank " << g;
  }
}

TEST(HostRanks, HostRankQueuesAvoidPcie) {
  // Host-rank command/notification queues use local transport: a pure
  // host-rank ping-pong must not touch the PCIe link.
  Cluster c({.machine = machine(1), .ranks_per_device = 1, .host_ranks = 2});
  std::vector<double> a(4, 1.0), b(4, 2.0);
  const auto txns_before = c.pcie(0).transactions(pcie::Dir::kHostToDevice) +
                           c.pcie(0).transactions(pcie::Dir::kDeviceToHost);
  std::vector<double> dev_pad(4, 0.0);
  c.run([&](Context& ctx) -> Proc<void> {
    // win_create is collective over the world: every rank participates.
    std::span<double> mine(ctx.world_rank == 1 ? a
                           : ctx.world_rank == 2 ? b
                                                 : dev_pad);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (!ctx.is_host_rank()) {
      co_await barrier(ctx, kCommWorld);
      co_await win_free(ctx, w);
      co_return;
    }
    const int peer = ctx.world_rank == 1 ? 2 : 1;
    for (int i = 0; i < 5; ++i) {
      if (ctx.world_rank == 1) {
        co_await put_notify(ctx, w, peer, 0, sizeof(double), mine.data(), 0);
        co_await wait_notifications(ctx, w, peer, 0, 1);
      } else {
        co_await wait_notifications(ctx, w, peer, 0, 1);
        co_await put_notify(ctx, w, peer, 0, sizeof(double), mine.data(), 0);
      }
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  // The device rank's barrier/finish commands still cross PCIe; host-rank
  // traffic must not add hundreds of transactions.
  const auto txns_after = c.pcie(0).transactions(pcie::Dir::kHostToDevice) +
                          c.pcie(0).transactions(pcie::Dir::kDeviceToHost);
  EXPECT_LT(txns_after - txns_before, 30u);
}

}  // namespace
}  // namespace dcuda
