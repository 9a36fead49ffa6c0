#pragma once

// The benchmark's workloads. Each one builds clusters through the public
// ClusterSpec API, runs the apps (or its own rank body) on them, and checks
// every simulated output. Timing and counting happen around those calls;
// the counters read are the ones sim, net, pcie and mpi already expose and
// the sim::Tracer summaries.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness.h"
#include "sim/trace.h"

namespace perfbench {

// kSmoke shrinks every workload to a couple of nodes and iterations (the
// self-test); kFull is the measured size.
enum class Scale { kFull, kSmoke };

// Everything one repetition of a workload measured, summed over its
// simulation runs.
struct RepTotals {
  int runs = 0;
  int failed = 0;

  // Simulated clock, ms per 100 iterations.
  double dcuda_ms = 0.0;
  // sim_speedup = speedup_num / speedup_den (set by the workload).
  double speedup_num = 0.0;
  double speedup_den = 0.0;

  // Counters the layers expose with tracing off.
  std::uint64_t events = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t pool_growths = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t net_messages = 0;
  double net_bytes = 0.0;
  std::uint64_t pcie_transactions = 0;
  std::uint64_t pcie_doorbells = 0;
  std::uint64_t mpi_sends = 0;  // MPI-CUDA runs only
  std::uint64_t mpi_staged = 0;
  std::uint64_t mpi_direct = 0;

  // Every simulated result and count, run by run: the determinism guard
  // requires it to be identical in every repetition, traced or not.
  std::vector<double> fingerprint;

  // Traced repetitions only (sim::summarize and tracer metrics).
  double category_s[dcuda::sim::kNumCategories] = {};
  double overlap_s = 0.0;
  double comm_s = 0.0;
  std::vector<double> wait_us;
  std::map<std::string, double> metrics;
  // Benchmark-owned simulated-clock spans (overlap workload).
  std::vector<double> put_notify_us;
  std::vector<double> exchange_us;

  double metric(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  }
  // Everything the traced repetitions must agree on.
  std::vector<double> traced_fingerprint() const;
};

// One repetition: runs simulation configurations under a parent span.
class Rep {
 public:
  Rep(SpanLog& log, int span, bool traced, std::vector<SimSpan>* keep_sim_spans)
      : log_(log), span_(span), traced_(traced), keep_(keep_sim_spans) {}

  bool traced() const { return traced_; }
  RepTotals& totals() { return t_; }

  // Builds a cluster and the benchmark-owned inputs (`setup`), runs the
  // simulation (`run`), checks its outputs (`check`, before teardown so it
  // can read device memory) and tears the cluster down. Spans:
  // <name> -> cluster.setup, run, cluster.teardown. A throwing run or a
  // failed check counts as a failed run.
  void config(const std::string& name, const dcuda::ClusterSpec& spec, bool mpi_variant,
              const std::function<void(dcuda::Cluster&)>& setup,
              const std::function<void(dcuda::Cluster&)>& run,
              const std::function<bool(dcuda::Cluster&)>& check);

  // A check across runs (e.g. dCUDA vs MPI-CUDA bitwise equality).
  void check(bool ok, const std::string& what);

  // Where to keep simulated-clock spans for the Chrome trace, or null.
  std::vector<SimSpan>* sim_span_sink() const {
    return traced_ && keep_ != nullptr && keep_->empty() ? keep_ : nullptr;
  }

 private:
  void collect(dcuda::Cluster& c, bool mpi_variant);

  SpanLog& log_;
  int span_;
  bool traced_;
  std::vector<SimSpan>* keep_;
  RepTotals t_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Computes the serial references the output checks compare against
  // (spans "apps.reference" under `parent`).
  virtual void prepare(SpanLog& log, int parent) = 0;
  virtual void run(Rep& rep) = 0;
  // Label of the simulated-clock spans kept for the Chrome trace.
  virtual std::string sim_span_label() const { return ""; }
};

// "stencil", "overlap" or "particles"; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale);

}  // namespace perfbench
