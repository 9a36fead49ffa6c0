#pragma once

// Measurement plumbing of the benchmark: guarded ratios, host-clock spans
// with parents and a shared run id, their self times, and the Chrome trace
// writer. Nothing here knows about the simulator.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// num / den, or 0 when den is 0 (a layer that did no work has no ratio).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// |a - b| <= rel * max(|a|, |b|): checksums that sum ~1e8 values cannot be
// compared with an absolute tolerance.
bool rel_close(double a, double b, double rel);

// One host-clock interval. Times are seconds since the log was created.
struct HostSpan {
  std::string name;
  int parent = -1;  // index into the log, -1 for a root
  double begin = 0.0;
  double end = 0.0;
};

// Self time of every span: its duration minus the union of the intervals its
// direct children cover (clipped to the span).
std::vector<double> self_times(const std::vector<HostSpan>& spans);

// Appends spans in memory; written out once, at exit.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id), t0_(Clock::now()) {}

  std::uint64_t run_id() const { return run_id_; }
  double now() const { return std::chrono::duration<double>(Clock::now() - t0_).count(); }

  int open(std::string name, int parent) {
    spans_.push_back(HostSpan{std::move(name), parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  // Closes the span when it leaves scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, int parent)
        : log_(log), id_(log.open(std::move(name), parent)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  const std::vector<HostSpan>& spans() const { return spans_; }

  // Summed duration of the spans named `name` under `ancestor` (any depth).
  double total(const std::string& name, int ancestor) const;
  // Summed self time of the direct children of `parent`, plus its own.
  double self_under(int parent) const;

 private:
  std::uint64_t run_id_;
  Clock::time_point t0_;
  std::vector<HostSpan> spans_;
};

// A simulated-clock interval recorded by benchmark-owned rank code.
struct SimSpan {
  const char* name = "";
  int rank = -1;
  int parent = -1;  // index into the same vector, -1 for a root
  double begin_us = 0.0;
  double end_us = 0.0;
};

// Chrome trace_event JSON: host spans on one process ("host clock"), the
// simulated spans on another ("simulated clock"). Every event carries its id,
// its parent and the run id in args.
void write_chrome(std::ostream& os, const SpanLog& host, const std::vector<SimSpan>& sim,
                  const std::string& sim_label);

}  // namespace perfbench
