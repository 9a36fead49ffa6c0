// Cross-cutting checks: the paper's message-count claims, end-to-end
// determinism of whole applications, config knobs, and smaller odds and
// ends not covered by the per-module suites.

#include <gtest/gtest.h>

#include "apps/spmv.h"
#include "apps/stencil.h"
#include "cluster/cluster.h"

namespace dcuda {
namespace {

using sim::Proc;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

TEST(MessageCounts, DcudaSendsOneMessagePerVerticalLayer) {
  // §IV-C: the dCUDA stencil sends k separate messages per halo (one per
  // vertical layer) while MPI-CUDA packs each halo into a single message.
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 6;
  cfg.iterations = 4;
  std::uint64_t dcuda_msgs, mpicuda_msgs;
  {
    Cluster c({.machine = machine(2), .ranks_per_device = 2});
    apps::stencil::run_dcuda(c, cfg);
    dcuda_msgs = c.fabric().messages_sent(0) + c.fabric().messages_sent(1);
  }
  {
    Cluster c({.machine = machine(2), .ranks_per_device = 2});
    apps::stencil::run_mpi_cuda(c, cfg);
    mpicuda_msgs = c.fabric().messages_sent(0) + c.fabric().messages_sent(1);
  }
  // Per iteration, 4 directed line exchanges cross the device boundary; the
  // dCUDA variant multiplies each by ksize data messages (plus meta).
  EXPECT_GT(dcuda_msgs, mpicuda_msgs * 3);
}

TEST(Determinism, StencilFullyReproducible) {
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 5;
  auto run_once = [&] {
    Cluster c({.machine = machine(2), .ranks_per_device = 4});
    auto r = apps::stencil::run_dcuda(c, cfg);
    return std::pair<double, double>{r.elapsed, r.checksum};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);    // bit-identical simulated time
  EXPECT_EQ(a.second, b.second);  // bit-identical numerics
}

TEST(Determinism, SpmvFullyReproducible) {
  apps::spmv::Config cfg;
  cfg.n_dev = 32;
  cfg.density = 0.1;
  cfg.iterations = 2;
  auto run_once = [&] {
    Cluster c({.machine = machine(4), .ranks_per_device = 4});
    auto r = apps::spmv::run_dcuda(c, cfg);
    return std::pair<double, double>{r.elapsed, r.checksum};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ConfigKnobs, ExtraFlopsSlowTheStencilDown) {
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 5;
  double base, heavy;
  {
    Cluster c({.machine = machine(1), .ranks_per_device = 4});
    base = apps::stencil::run_dcuda(c, cfg).elapsed;
  }
  cfg.extra_flops_per_point = 500.0;
  {
    Cluster c({.machine = machine(1), .ranks_per_device = 4});
    heavy = apps::stencil::run_dcuda(c, cfg).elapsed;
  }
  EXPECT_GT(heavy, base);
}

TEST(ConfigKnobs, SlowerNetworkOnlyHurtsMultiNode) {
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 5;
  auto timed = [&](int nodes, double gbs_rate) {
    sim::MachineConfig mc = machine(nodes);
    mc.net.bandwidth = sim::gbs(gbs_rate);
    Cluster c({.machine = mc, .ranks_per_device = 4});
    return apps::stencil::run_mpi_cuda(c, cfg).elapsed;
  };
  EXPECT_NEAR(timed(1, 6.0), timed(1, 0.5), 1e-9);  // no network use at 1 node
  EXPECT_GT(timed(2, 0.5), timed(2, 6.0));
}

TEST(ConfigKnobs, FasterDeviceMemorySpeedsMemoryBoundWork) {
  auto timed = [&](double bw_gbs) {
    sim::MachineConfig mc = machine(1);
    mc.device.mem_bandwidth = sim::gbs(bw_gbs);
    Cluster c({.machine = mc, .ranks_per_device = 16});
    return c.run([&](Context& ctx) -> Proc<void> {
      co_await ctx.block->mem_traffic(1e6);
    });
  };
  // 16 concurrent blocks: at 20 GB/s aggregate each gets 1.25 GB/s (below
  // the 2.1 GB/s per-block cap); at 400 GB/s the cap binds instead.
  EXPECT_GT(timed(20.0), timed(400.0));
}

TEST(ClusterApi, SequentialRunsOnOneCluster) {
  // The runtime state (queues, counters) must survive multiple kernels.
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(64);
  for (int k = 0; k < 3; ++k) {
    int notified = 0;
    c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld, mem);
      const int peer = ctx.world_rank ^ 1;
      co_await put_notify(ctx, w, peer, 0, 0, nullptr, k);
      co_await wait_notifications(ctx, w, peer, k, 1);
      ++notified;
      co_await win_free(ctx, w);
    });
    EXPECT_EQ(notified, 2) << "kernel " << k;
  }
}

TEST(ClusterApi, TracerOffByDefaultCostsNothing) {
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  c.run([&](Context& ctx) -> Proc<void> {
    co_await ctx.block->compute_flops(1e6);
  });
  EXPECT_TRUE(c.tracer().spans().empty());
}

TEST(MpiStats, StagingCountersTrackProtocolChoice) {
  Cluster c({.machine = machine(2), .ranks_per_device = 1});
  auto small_buf = c.device(0).alloc<std::byte>(1024);
  auto big_buf = c.device(0).alloc<std::byte>(256 * 1024);
  auto small_dst = c.device(1).alloc<std::byte>(1024);
  auto big_dst = c.device(1).alloc<std::byte>(256 * 1024);
  auto& s = c.sim();
  auto tx = [&]() -> Proc<void> {
    co_await c.mpi(0).send(1, 0, c.device(0).ref(small_buf));
    co_await c.mpi(0).send(1, 1, c.device(0).ref(big_buf));
  };
  auto rx = [&]() -> Proc<void> {
    co_await c.mpi(1).recv(0, 0, c.device(1).ref(small_dst));
    co_await c.mpi(1).recv(0, 1, c.device(1).ref(big_dst));
  };
  // Each side runs on its own node's shard: under parallel windows a
  // process may only wait on triggers of the shard it runs in.
  s.spawn_on(0, tx(), "tx");
  s.spawn_on(1, rx(), "rx");
  s.run();
  EXPECT_EQ(c.mpi(0).staged_transfers(), 1u);          // only the 256 kB one
  EXPECT_GE(c.mpi(0).direct_device_transfers(), 1u);   // the 1 kB one
}

}  // namespace
}  // namespace dcuda
