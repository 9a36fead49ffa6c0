#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

bool rel_close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::vector<double> self_times(const std::vector<HostSpan>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const HostSpan& s : spans) {
    if (s.parent < 0) continue;
    const HostSpan& p = spans[static_cast<std::size_t>(s.parent)];
    const double b = std::max(s.begin, p.begin), e = std::min(s.end, p.end);
    if (e > b) kids[static_cast<std::size_t>(s.parent)].push_back({b, e});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [b, e] : iv) {
      if (b > hi) {
        if (hi > lo) covered += hi - lo;
        lo = b;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = (spans[i].end - spans[i].begin) - covered;
  }
  return self;
}

double SpanLog::total(const std::string& name, int ancestor) const {
  double t = 0.0;
  for (const HostSpan& s : spans_) {
    if (s.name != name) continue;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (p == ancestor) {
        t += s.end - s.begin;
        break;
      }
    }
  }
  return t;
}

double SpanLog::self_under(int parent) const {
  const std::vector<double> self = self_times(spans_);
  double t = self[static_cast<std::size_t>(parent)];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == parent) t += self[i];
  }
  return t;
}

namespace {

void event(std::ostream& os, bool& first, int pid, int tid, const char* name, int id,
           int parent, std::uint64_t run_id, double ts_us, double dur_us) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"run_id\":%llu}}",
                first ? "" : ",\n", pid, tid, name, ts_us, dur_us, id, parent,
                static_cast<unsigned long long>(run_id));
  os << buf;
  first = false;
}

void process_name(std::ostream& os, bool& first, int pid, const std::string& name) {
  os << (first ? "" : ",\n") << "{\"ph\":\"M\",\"pid\":" << pid
     << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << name << "\"}}";
  first = false;
}

}  // namespace

void write_chrome(std::ostream& os, const SpanLog& host, const std::vector<SimSpan>& sim,
                  const std::string& sim_label) {
  bool first = true;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  process_name(os, first, 1, "host clock");
  const auto& hs = host.spans();
  for (std::size_t i = 0; i < hs.size(); ++i) {
    event(os, first, 1, 0, hs[i].name.c_str(), static_cast<int>(i), hs[i].parent,
          host.run_id(), hs[i].begin * 1e6, (hs[i].end - hs[i].begin) * 1e6);
  }
  if (!sim.empty()) {
    process_name(os, first, 2, "simulated clock: " + sim_label);
    for (std::size_t i = 0; i < sim.size(); ++i) {
      event(os, first, 2, sim[i].rank, sim[i].name, static_cast<int>(i), sim[i].parent,
            host.run_id(), sim[i].begin_us, sim[i].end_us - sim[i].begin_us);
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
