// The dCUDA simulator benchmark. One process runs one workload
// repeatedly for --seconds, checks every simulated output, and prints one
// JSON line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1 (which alternates untraced and traced repetitions and writes the
// spans as a Chrome trace). Metric definitions: perfbench/README.md.
//
//   perfbench --workload stencil|overlap|particles --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "sim/units.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace perfbench;
namespace sim = dcuda::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload stencil|overlap|particles "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// No ambient DCUDA_* setting (iterations, backend, executor, topology,
// perturbation, faults) may change a workload.
void clear_dcuda_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DCUDA_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

struct RepRecord {
  bool traced = false;
  double wall_s = 0.0;  // run + teardown
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double self_s = 0.0;  // benchmark code: output checks, counter collection
  RepTotals t;
};

std::vector<double> field(const std::vector<RepRecord>& reps, bool traced,
                          double RepRecord::*f) {
  std::vector<double> v;
  for (const auto& r : reps) {
    if (r.traced == traced) v.push_back(r.*f);
  }
  return v;
}

class Json {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  void print(bool correct, int attempted, int failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, body_.c_str());
  }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  clear_dcuda_env();
  auto workload = make_workload(opt.workload, opt.seed, Scale::kFull);
  if (!workload) usage(("unknown workload " + opt.workload).c_str());

  const sim::MachineConfig m;
  std::printf("# machine: backend=%s threads=%d shards=%d topology=%s rails=%d\n",
              sim::backend_name(m.backend), m.threads, m.shards,
              dcuda::net::topology_name(m.net.topo.kind), m.net.topo.rails);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  // Every span of this process shares one run id: the process id.
  SpanLog log(static_cast<std::uint64_t>(getpid()));
  const int root = log.open("workload." + opt.workload, -1);
  workload->prepare(log, root);
  const double reference_s = log.total("apps.reference", root);

  std::vector<SimSpan> sim_spans;
  std::vector<RepRecord> reps;
  const double start = log.now();
  // At least one repetition (one untraced/traced pair with --trace 1).
  while (reps.empty() || (opt.trace && reps.size() % 2 == 1) ||
         log.now() - start < opt.seconds) {
    RepRecord r;
    r.traced = opt.trace && reps.size() % 2 == 1;
    const int span = log.open(r.traced ? "rep.traced" : "rep", root);
    Rep rep(log, span, r.traced, &sim_spans);
    workload->run(rep);
    log.close(span);
    r.t = std::move(rep.totals());
    r.run_s = log.total("run", span);
    r.teardown_s = log.total("cluster.teardown", span);
    r.setup_s = log.total("cluster.setup", span);
    r.wall_s = r.run_s + r.teardown_s;
    r.self_s = log.self_under(span);
    std::fprintf(stderr, "perfbench: %s rep %zu%s wall %.3f s setup %.4f s, %d runs, %d failed\n",
                 opt.workload.c_str(), reps.size(), r.traced ? " (traced)" : "", r.wall_s,
                 r.setup_s, r.t.runs, r.t.failed);
    reps.push_back(std::move(r));
  }
  log.close(root);

  // Determinism guard: every repetition, traced or not, must reproduce the
  // first one's simulated results and counts exactly.
  int attempted = 0, failed = 0;
  const RepRecord* first_traced = nullptr;
  for (const auto& r : reps) {
    attempted += r.t.runs;
    failed += r.t.failed;
    if (r.t.fingerprint != reps.front().t.fingerprint) {
      std::fprintf(stderr, "perfbench: simulated results differ between repetitions\n");
      ++failed;
    }
    if (!r.traced) continue;
    if (first_traced == nullptr) first_traced = &r;
    if (r.t.traced_fingerprint() != first_traced->t.traced_fingerprint()) {
      std::fprintf(stderr, "perfbench: traced metrics differ between repetitions\n");
      ++failed;
    }
  }

  const std::size_t traced_reps = field(reps, true, &RepRecord::wall_s).size();
  std::printf("# repetitions: %zu untraced, %zu traced (host times are their medians)\n",
              reps.size() - traced_reps, traced_reps);
  const RepTotals& t0 = reps.front().t;
  Json out;
  if (!opt.trace) {
    out.add("wall_s", sim::median(field(reps, false, &RepRecord::wall_s)), "s");
    out.add("setup_s", sim::median(field(reps, false, &RepRecord::setup_s)), "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
    out.add("sim_events", static_cast<double>(t0.events), "count");
    out.add("sim_dcuda_ms", t0.dcuda_ms, "sim_ms");
    out.add("sim_speedup", ratio(t0.speedup_num, t0.speedup_den), "ratio");
  } else {
    const RepTotals& tr = first_traced->t;
    const double run_s = sim::median(field(reps, false, &RepRecord::run_s));
    const auto cat_ms = [&](sim::Category c) {
      return sim::to_millis(tr.category_s[static_cast<int>(c)]);
    };
    out.add("sim.run_s", run_s, "s");
    out.add("sim.events", static_cast<double>(t0.events), "count");
    out.add("sim.ns_per_event", ratio(run_s * 1e9, static_cast<double>(t0.events)), "ns");
    out.add("sim.pool_slots", static_cast<double>(t0.pool_slots), "count");
    out.add("sim.pool_growths", static_cast<double>(t0.pool_growths), "count");
    out.add("sim.heap_fallbacks", static_cast<double>(t0.heap_fallbacks), "count");
    out.add("cluster.setup_s", sim::median(field(reps, false, &RepRecord::setup_s)), "s");
    out.add("cluster.teardown_s", sim::median(field(reps, false, &RepRecord::teardown_s)), "s");
    out.add("apps.reference_s", reference_s, "s");
    out.add("gpu.compute_ms", cat_ms(sim::Category::kCompute), "sim_ms");
    out.add("gpu.memory_ms", cat_ms(sim::Category::kMemory), "sim_ms");
    out.add("dcuda.puts", tr.metric("puts_issued"), "count");
    out.add("dcuda.match_rounds", tr.metric("match_rounds"), "count");
    out.add("dcuda.match_ratio",
            ratio(tr.metric("notifications_matched"), tr.metric("match_rounds")), "ratio");
    out.add("dcuda.put_ms", cat_ms(sim::Category::kPut), "sim_ms");
    out.add("dcuda.wait_ms", cat_ms(sim::Category::kWait), "sim_ms");
    out.add("dcuda.barrier_ms", cat_ms(sim::Category::kBarrier), "sim_ms");
    out.add("dcuda.overlap_ratio", ratio(tr.overlap_s, tr.comm_s), "ratio");
    out.add("dcuda.wait_us_p50", sim::percentile(tr.wait_us, 0.5), "sim_us");
    out.add("dcuda.wait_us_p99", sim::percentile(tr.wait_us, 0.99), "sim_us");
    out.add("dcuda.put_notify_sim_us_p50", sim::percentile(tr.put_notify_us, 0.5), "sim_us");
    out.add("dcuda.put_notify_sim_us_p99", sim::percentile(tr.put_notify_us, 0.99), "sim_us");
    out.add("dcuda.exchange_sim_us_p50", sim::percentile(tr.exchange_us, 0.5), "sim_us");
    out.add("dcuda.exchange_sim_us_p99", sim::percentile(tr.exchange_us, 0.99), "sim_us");
    out.add("runtime.notify_ms", cat_ms(sim::Category::kNotify), "sim_ms");
    out.add("runtime.notifications_delivered", tr.metric("notifications_delivered"), "count");
    out.add("runtime.eager_batches", tr.metric("eager_batches"), "count");
    out.add("queue.cmd_enqueues", tr.metric("cmd_queue_enqueues"), "count");
    out.add("queue.cmd_tail_reads", tr.metric("cmd_queue_tail_reads"), "count");
    out.add("queue.tail_read_ratio",
            ratio(tr.metric("cmd_queue_tail_reads"), tr.metric("cmd_queue_enqueues")),
            "ratio");
    out.add("pcie.transactions", static_cast<double>(t0.pcie_transactions), "count");
    out.add("pcie.doorbells", static_cast<double>(t0.pcie_doorbells), "count");
    out.add("pcie.busy_ms", cat_ms(sim::Category::kPcie), "sim_ms");
    out.add("net.messages", static_cast<double>(t0.net_messages), "count");
    out.add("net.bytes", t0.net_bytes, "B");
    out.add("net.wire_ms", cat_ms(sim::Category::kFabric), "sim_ms");
    out.add("mpi.sends", static_cast<double>(t0.mpi_sends), "count");
    out.add("mpi.staged", static_cast<double>(t0.mpi_staged), "count");
    out.add("mpi.direct", static_cast<double>(t0.mpi_direct), "count");
    out.add("trace.overhead_s",
            sim::median(field(reps, true, &RepRecord::wall_s)) -
                sim::median(field(reps, false, &RepRecord::wall_s)),
            "s");
    out.add("bench.self_s", sim::median(field(reps, false, &RepRecord::self_s)), "s");

    if (!opt.trace_out.empty()) {
      std::ofstream f(opt.trace_out);
      write_chrome(f, log, sim_spans, workload->sim_span_label());
      if (f) {
        std::fprintf(stderr, "perfbench: wrote %s\n", opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
        ++failed;
      }
    }
  }
  out.print(failed == 0, attempted, failed);
  return 0;
}
