// Backend comparison: the paper's host event loop (§III-A) versus the
// device-initiated backend (§III-D outlook; docs/BACKENDS.md). Under
// RuntimeBackend::kHostLoop even device-local notifications loop through
// the host to keep the ordering logic in one place; kDeviceInitiated
// delivers them on the device's notification board and rings a device→NIC
// doorbell for remote puts — the improvement the paper's "Notification
// System" discussion anticipates from hardware support.
//
// Output: the figure table on stdout by default; with --json, a single
// machine-readable record (scripts/bench_perf.sh writes it to
// BENCH_backend.json and gates on "speedup" >= 3x).

#include <cstring>

#include "bench/common.h"
#include "dcuda/dcuda.h"

namespace dcuda {
namespace {

// Half-roundtrip notified-put latency between two ranks: same-device when
// `nodes` is 1 (the latency hardware notification support attacks), across
// the fabric when 2 (doorbell'd puts, board delivery at the target).
double pingpong_latency_us(sim::RuntimeBackend backend, int nodes, int iters) {
  sim::MachineConfig mc = bench::machine(nodes);
  mc.backend = backend;
  const int rpd = nodes == 1 ? 2 : 1;
  auto run = [&](int n) {
    Cluster c({.machine = mc, .ranks_per_device = rpd});
    std::vector<std::span<std::byte>> mem;
    for (int d = 0; d < nodes; ++d) mem.push_back(c.device(d).alloc<std::byte>(256));
    c.run([&, n](Context& ctx) -> sim::Proc<void> {
      Window w = co_await win_create(
          ctx, kCommWorld, mem[static_cast<size_t>(ctx.world_rank / rpd)]);
      for (int i = 0; i < n; ++i) {
        if (ctx.world_rank == 0) {
          co_await put_notify(ctx, w, 1, 0, 0, nullptr, 0);
          co_await wait_notifications(ctx, w, 1, 0, 1);
        } else {
          co_await wait_notifications(ctx, w, 0, 0, 1);
          co_await put_notify(ctx, w, 0, 0, 0, nullptr, 0);
        }
      }
      co_await win_free(ctx, w);
    });
    return c.sim().now();
  };
  const double setup = run(0);
  return sim::to_micros((run(iters) - setup) / (2.0 * iters));
}

}  // namespace
}  // namespace dcuda

int main(int argc, char** argv) {
  using namespace dcuda;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  // Pinned to the workload BENCH_backend.json records (and the >= 3x gate
  // reads), independent of DCUDA_BENCH_ITERS.
  const int iters = 10;
  const double host_local =
      pingpong_latency_us(sim::RuntimeBackend::kHostLoop, 1, iters);
  const double dev_local =
      pingpong_latency_us(sim::RuntimeBackend::kDeviceInitiated, 1, iters);
  const double host_remote =
      pingpong_latency_us(sim::RuntimeBackend::kHostLoop, 2, iters);
  const double dev_remote =
      pingpong_latency_us(sim::RuntimeBackend::kDeviceInitiated, 2, iters);
  const double speedup = host_local / dev_local;

  if (json) {
    std::printf("{\n");
    std::printf("  \"schema\": \"dcuda-bench-backend-v1\",\n");
    std::printf("  \"iters\": %d,\n", iters);
    std::printf("  \"local_latency_us\": {\"host_loop\": %.3f, "
                "\"device_initiated\": %.3f},\n", host_local, dev_local);
    std::printf("  \"remote_latency_us\": {\"host_loop\": %.3f, "
                "\"device_initiated\": %.3f},\n", host_remote, dev_remote);
    std::printf("  \"remote_speedup\": %.3f,\n", host_remote / dev_remote);
    std::printf("  \"speedup\": %.3f\n}\n", speedup);
    return 0;
  }
  bench::header("Ablation",
                "runtime backends: host event loop vs device-initiated");
  bench::row({"backend", "local_halfroundtrip_us", "remote_halfroundtrip_us"});
  bench::row({"host_loop (paper SIII-A)", bench::fmt(host_local, "%.2f"),
              bench::fmt(host_remote, "%.2f")});
  bench::row({"device_initiated (paper SIII-D)", bench::fmt(dev_local, "%.2f"),
              bench::fmt(dev_remote, "%.2f")});
  std::printf("# notified-put speedup from hardware support: %.1fx local, "
              "%.1fx remote\n", speedup, host_remote / dev_remote);
  return 0;
}
