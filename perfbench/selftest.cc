// Self-test of the benchmark: the ratio and self-time arithmetic, and a
// minimal-size run of every workload (one untraced and one traced repetition
// that must pass their output checks and agree exactly).
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_ratios() {
  CHECK(ratio(3.0, 0.0) == 0.0);  // a layer that did no work
  CHECK(ratio(0.0, 4.0) == 0.0);
  CHECK(ratio(6.0, 4.0) == 1.5);
  CHECK(rel_close(1.1e8, 1.1e8 + 1e-5, 1e-9));
  CHECK(!rel_close(1.0, 1.0 + 1e-6, 1e-9));
  CHECK(rel_close(0.0, 0.0, 1e-9));
}

void test_self_times() {
  // root [0,10]: children [1,3] and [2,5] overlap (union 4), [7,8] (1) ->
  // self 5. Child [1,3] has a grandchild [1.5,2]: it does not reduce the
  // root's self time, only its parent's. A child running past its parent is
  // clipped to the parent.
  const std::vector<HostSpan> s = {
      {"root", -1, 0.0, 10.0}, {"a", 0, 1.0, 3.0}, {"b", 0, 2.0, 5.0},
      {"c", 0, 7.0, 8.0},      {"a1", 1, 1.5, 2.0}, {"late", 3, 7.5, 9.0},
  };
  const std::vector<double> self = self_times(s);
  CHECK(near(self[0], 5.0));
  CHECK(near(self[1], 1.5));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 0.5));
  CHECK(near(self[4], 0.5));
  CHECK(near(self[5], 1.5));
}

void test_span_log() {
  SpanLog log(7);
  const int root = log.open("root", -1);
  const int rep = log.open("rep", root);
  { SpanLog::Scope s(log, "run", rep); }
  { SpanLog::Scope s(log, "run", rep); }
  log.close(rep);
  log.close(root);
  const auto& sp = log.spans();
  CHECK(sp.size() == 4);
  CHECK(near(log.total("run", root), (sp[2].end - sp[2].begin) + (sp[3].end - sp[3].begin)));
  CHECK(log.total("run", 3) == 0.0);
  CHECK(near(log.self_under(rep), (sp[1].end - sp[1].begin)));
  std::ostringstream os;
  write_chrome(os, log, {{"put_notify", 3, -1, 1.0, 2.5}}, "sim");
  const std::string j = os.str();
  CHECK(j.find("\"run_id\":7") != std::string::npos);
  CHECK(j.find("\"name\":\"put_notify\"") != std::string::npos);
  CHECK(j.find("\"parent\":1") != std::string::npos);
  CHECK(j.back() == '\n');
}

void smoke(const std::string& name) {
  auto w = make_workload(name, 3, Scale::kSmoke);
  CHECK(w != nullptr);
  if (!w) return;
  SpanLog log(1);
  const int root = log.open("workload", -1);
  w->prepare(log, root);
  std::vector<SimSpan> kept;
  Rep plain(log, log.open("rep", root), false, &kept);
  w->run(plain);
  Rep traced(log, log.open("rep.traced", root), true, &kept);
  w->run(traced);
  const RepTotals& a = plain.totals();
  const RepTotals& b = traced.totals();
  std::fprintf(stderr, "smoke %s: %d runs, %d failed, %llu events\n", name.c_str(), a.runs,
               a.failed + b.failed, static_cast<unsigned long long>(a.events));
  CHECK(a.runs > 0 && a.runs == b.runs);
  CHECK(a.failed == 0 && b.failed == 0);
  CHECK(a.fingerprint == b.fingerprint);  // tracing only observes
  CHECK(a.events > 0 && a.dcuda_ms > 0.0 && a.speedup_den > 0.0);
  CHECK(a.metrics.empty() && !b.metrics.empty());
  CHECK(b.metric("puts_issued") > 0.0);
  if (name == "overlap") {
    CHECK(!b.put_notify_us.empty() && !b.exchange_us.empty());
    CHECK(!kept.empty());
  } else {
    CHECK(a.mpi_sends > 0);
  }
}

}  // namespace

int main() {
  test_ratios();
  test_self_times();
  test_span_log();
  for (const char* w : {"stencil", "overlap", "particles"}) smoke(w);
  CHECK(make_workload("nope", 1, Scale::kSmoke) == nullptr);
  std::printf("perfbench selftest: %s (%d failures)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
