#include "workloads.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <span>

#include "apps/dpd3d.h"
#include "apps/particles.h"
#include "apps/stencil.h"
#include "dcuda/dcuda.h"
#include "sim/trace_export.h"
#include "sim/units.h"

namespace perfbench {

namespace sim = dcuda::sim;
using dcuda::Cluster;
using dcuda::ClusterSpec;

namespace {

// Checksums of parallel variants against the serial reference: the
// summation order differs, so equality holds to rounding only.
constexpr double kRefTolerance = 1e-9;

ClusterSpec spec_for(int nodes, int ranks_per_device) {
  // The default machine: host-loop backend, flat fabric, one rail and the
  // engine's default executor.
  return ClusterSpec{}.with_nodes(nodes).with_ranks_per_device(ranks_per_device);
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double per100(sim::Dur elapsed, int iterations) {
  return sim::to_millis(elapsed) * 100.0 / iterations;
}

// -- stencil: Fig. 10 diffusion, dCUDA and MPI-CUDA --------------------------

class Stencil final : public Workload {
 public:
  explicit Stencil(Scale s)
      : nodes_(s == Scale::kFull ? 8 : 2), rpd_(s == Scale::kFull ? 208 : 8) {
    cfg_.iterations = s == Scale::kFull ? 10 : 2;
  }

  void prepare(SpanLog& log, int parent) override {
    SpanLog::Scope sp(log, "apps.reference", parent);
    ref_ = dcuda::apps::stencil::reference_checksum(cfg_, nodes_, rpd_);
  }

  void run(Rep& rep) override {
    namespace st = dcuda::apps::stencil;
    st::Result d, m;
    const auto close = [&](const st::Result& r) {
      return rel_close(r.checksum, ref_, kRefTolerance);
    };
    rep.config("stencil.dcuda", spec_for(nodes_, rpd_), false, nullptr,
               [&](Cluster& c) { d = st::run_dcuda(c, cfg_); },
               [&](Cluster&) { return close(d); });
    rep.config("stencil.mpi_cuda", spec_for(nodes_, rpd_), true, nullptr,
               [&](Cluster& c) { m = st::run_mpi_cuda(c, cfg_); },
               [&](Cluster&) { return close(m); });
    rep.check(d.checksum == m.checksum, "stencil: dCUDA and MPI-CUDA checksums differ");
    RepTotals& t = rep.totals();
    t.dcuda_ms += per100(d.elapsed, cfg_.iterations);
    t.speedup_num += per100(m.elapsed, cfg_.iterations);
    t.speedup_den += per100(d.elapsed, cfg_.iterations);
    t.fingerprint.insert(t.fingerprint.end(),
                         {d.elapsed, d.checksum, static_cast<double>(d.bytes_on_wire),
                          m.elapsed, m.checksum, static_cast<double>(m.bytes_on_wire)});
  }

 private:
  int nodes_, rpd_;
  dcuda::apps::stencil::Config cfg_;
  double ref_ = 0.0;
};

// -- overlap: Fig. 8 memcopy sweep ------------------------------------------

class Overlap final : public Workload {
 public:
  Overlap(std::uint64_t seed, Scale s)
      : seed_(seed),
        nodes_(s == Scale::kFull ? 8 : 2),
        rpd_(s == Scale::kFull ? 208 : 8),
        rounds_(s == Scale::kFull ? 10 : 2),
        units_(s == Scale::kFull ? std::vector<int>{0, 1, 2, 4, 8, 16, 32}
                                 : std::vector<int>{0, 8}) {}

  // The reference is the seeded halo image: rank g's source bytes, which
  // its neighbours' destination halos must hold after an exchange.
  void prepare(SpanLog& log, int parent) override {
    SpanLog::Scope sp(log, "apps.reference", parent);
    halos_.resize(static_cast<std::size_t>(nodes_ * rpd_) * kHalo);
    for (std::size_t g = 0; g < halos_.size() / kHalo; ++g) {
      std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(g) << 32);
      for (std::size_t i = 0; i < kHalo; i += 8) {
        const std::uint64_t x = splitmix64(s);
        std::memcpy(&halos_[g * kHalo + i], &x, 8);
      }
    }
  }

  std::string sim_span_label() const override {
    return "overlap units=8 compute-and-exchange";
  }

  void run(Rep& rep) override {
    RepTotals& t = rep.totals();
    for (int units : units_) {
      const double full = one(rep, units, true, true);
      const double comp = one(rep, units, true, false);
      const double exch = one(rep, 0, false, true);
      t.speedup_num += comp + exch;
      t.speedup_den += full;
    }
  }

 private:
  static constexpr std::size_t kHalo = 1024;

  // One Fig. 8 point variant; returns its simulated ms per 100 rounds.
  double one(Rep& rep, int units, bool compute, bool exchange) {
    const int world = nodes_ * rpd_;
    std::vector<std::span<std::byte>> src(static_cast<std::size_t>(world));
    std::vector<std::span<std::byte>> dst(static_cast<std::size_t>(world));
    // Per-rank sample vectors: each rank coroutine writes only its own.
    std::vector<std::vector<double>> put_us(static_cast<std::size_t>(world));
    std::vector<std::vector<double>> exch_us(static_cast<std::size_t>(world));
    std::vector<std::vector<SimSpan>> kept(static_cast<std::size_t>(world));
    const bool record = rep.traced();
    std::vector<SimSpan>* sink = compute && exchange && units == 8 ? rep.sim_span_sink() : nullptr;
    sim::Dur elapsed = 0.0;

    const auto setup = [&](Cluster& c) {
      for (int g = 0; g < world; ++g) {
        auto& dev = c.device(g / rpd_);
        src[static_cast<std::size_t>(g)] = dev.alloc<std::byte>(kHalo);
        dst[static_cast<std::size_t>(g)] = dev.alloc<std::byte>(2 * kHalo);
        std::memcpy(src[static_cast<std::size_t>(g)].data(), halo(g), kHalo);
      }
    };

    const auto body = [&](dcuda::Context& ctx) -> sim::Proc<void> {
      using namespace dcuda;
      const int g = ctx.world_rank;
      const std::size_t gi = static_cast<std::size_t>(g);
      Window win = co_await win_create(ctx, kCommWorld, dst[gi]);
      const bool has_l = g > 0, has_r = g + 1 < ctx.world_size;
      const auto now_us = [&] { return sim::to_micros(ctx.sim().now()); };
      const auto put = [&](int target, std::size_t offset, int parent) -> sim::Proc<void> {
        const double b = now_us();
        co_await put_notify(ctx, win, target, offset, kHalo, src[gi].data(), 0);
        if (!record) co_return;
        put_us[gi].push_back(now_us() - b);
        if (sink != nullptr) kept[gi].push_back({"put_notify", g, parent, b, now_us()});
      };
      for (int it = 0; it < rounds_; ++it) {
        if (compute) {
          for (int u = 0; u < units; ++u) co_await ctx.block->mem_traffic(2.0 * 16.0 * 1024.0);
        }
        if (!exchange) continue;
        const double b = now_us();
        // Parent link within this rank's kept spans: the exchange span is
        // appended after its children, at index `parent`.
        const int parent = static_cast<int>(kept[gi].size()) + (has_l ? 1 : 0) + (has_r ? 1 : 0);
        if (has_l) co_await put(g - 1, kHalo, parent);
        if (has_r) co_await put(g + 1, 0, parent);
        co_await wait_notifications(ctx, win, kAnySource, 0, (has_l ? 1 : 0) + (has_r ? 1 : 0));
        if (!record) continue;
        exch_us[gi].push_back(now_us() - b);
        if (sink != nullptr) kept[gi].push_back({"exchange", g, -1, b, now_us()});
      }
      co_await win_free(ctx, win);
    };

    // Destination halos must hold the neighbours' seeded bytes.
    const auto check = [&](Cluster&) {
      if (!exchange) return true;
      for (int g = 0; g < world; ++g) {
        const std::byte* d = dst[static_cast<std::size_t>(g)].data();
        if (g > 0 && std::memcmp(d, halo(g - 1), kHalo) != 0) return false;
        if (g + 1 < world && std::memcmp(d + kHalo, halo(g + 1), kHalo) != 0) return false;
      }
      return true;
    };

    char name[64];
    std::snprintf(name, sizeof(name), "overlap.u%d.%s", units,
                  compute && exchange ? "full" : compute ? "compute" : "exchange");
    rep.config(name, spec_for(nodes_, rpd_), false, setup,
               [&](Cluster& c) { elapsed = c.run(body); }, check);

    RepTotals& t = rep.totals();
    const double ms = per100(elapsed, rounds_);
    t.dcuda_ms += ms;
    t.fingerprint.push_back(elapsed);
    for (int g = 0; g < world; ++g) {
      const std::size_t gi = static_cast<std::size_t>(g);
      t.put_notify_us.insert(t.put_notify_us.end(), put_us[gi].begin(), put_us[gi].end());
      t.exchange_us.insert(t.exchange_us.end(), exch_us[gi].begin(), exch_us[gi].end());
      if (sink == nullptr) continue;
      // Re-base the per-rank parent indices onto the shared vector.
      const int base = static_cast<int>(sink->size());
      for (SimSpan s : kept[gi]) {
        if (s.parent >= 0) s.parent += base;
        sink->push_back(s);
      }
    }
    return ms;
  }

  const std::byte* halo(int g) const { return &halos_[static_cast<std::size_t>(g) * kHalo]; }

  std::uint64_t seed_;
  int nodes_, rpd_, rounds_;
  std::vector<int> units_;
  std::vector<std::byte> halos_;
};

// -- particles: Fig. 9 2-D app + skewed 3-D DPD with rebalance ---------------

class Particles final : public Workload {
 public:
  Particles(std::uint64_t seed, Scale s)
      : nodes2_(s == Scale::kFull ? 8 : 2), nodes3_(s == Scale::kFull ? 4 : 2) {
    // Fig. 9: reduced cutoff, 60 particles per cell.
    p2_.cutoff = 0.25;
    p2_.particles_per_cell = 60;
    p2_.iterations = s == Scale::kFull ? 10 : 2;
    p2_.seed = seed;
    if (s == Scale::kSmoke) p2_.cells_per_node = 8;
    // fig_dpd3d --json: skewed density, 16 particles per cell.
    p3_.cells_per_node = 8;
    p3_.particles_per_cell = 16;
    p3_.iterations = s == Scale::kFull ? 40 : 4;
    p3_.dt = 0.02;
    p3_.density = dcuda::apps::dpd3d::Density::kSkewed;
    p3_.skew_drift = 0.8;
    p3_.record_load = true;
    p3_.seed = seed;
  }

  void prepare(SpanLog& log, int parent) override {
    SpanLog::Scope sp(log, "apps.reference", parent);
    ref2_ = dcuda::apps::particles::reference(p2_, nodes2_);
    ref3_ = dcuda::apps::dpd3d::reference(p3_, nodes3_);
  }

  void run(Rep& rep) override {
    namespace pa = dcuda::apps::particles;
    namespace dp = dcuda::apps::dpd3d;
    RepTotals& t = rep.totals();

    pa::Result d2, m2;
    const auto ok2 = [&](const pa::Result& r) {
      return r.total_particles == ref2_.total_particles &&
             rel_close(r.checksum, ref2_.checksum, kRefTolerance);
    };
    const ClusterSpec s2 = spec_for(nodes2_, p2_.cells_per_node);
    rep.config("particles2d.dcuda", s2, false, nullptr,
               [&](Cluster& c) { d2 = pa::run_dcuda(c, p2_); },
               [&](Cluster&) { return ok2(d2); });
    rep.config("particles2d.mpi_cuda", s2, true, nullptr,
               [&](Cluster& c) { m2 = pa::run_mpi_cuda(c, p2_); },
               [&](Cluster&) { return ok2(m2); });
    rep.check(d2.checksum == m2.checksum && d2.total_particles == m2.total_particles,
              "particles2d: dCUDA and MPI-CUDA results differ");

    dp::Result d3, m3;
    const auto ok3 = [&](const dp::Result& r) {
      return r.total_particles == ref3_.total_particles && r.halo_violations == 0 &&
             rel_close(r.checksum, ref3_.checksum, kRefTolerance);
    };
    dp::Config rebalanced = p3_;
    rebalanced.rebalance = true;
    const ClusterSpec s3 = spec_for(nodes3_, p3_.cells_per_node);
    rep.config("dpd3d.dcuda", s3, false, nullptr,
               [&](Cluster& c) { d3 = dp::run_dcuda(c, rebalanced); },
               [&](Cluster&) { return ok3(d3); });
    rep.config("dpd3d.mpi_cuda", s3, true, nullptr,
               [&](Cluster& c) { m3 = dp::run_mpi_cuda(c, p3_); },
               [&](Cluster&) { return ok3(m3); });
    rep.check(d3.checksum == m3.checksum && d3.total_particles == m3.total_particles,
              "dpd3d: dCUDA and MPI-CUDA results differ");

    const double dms = per100(d2.elapsed, p2_.iterations) + per100(d3.elapsed, p3_.iterations);
    t.dcuda_ms += dms;
    t.speedup_den += dms;
    t.speedup_num += per100(m2.elapsed, p2_.iterations) + per100(m3.elapsed, p3_.iterations);
    t.fingerprint.insert(t.fingerprint.end(),
                         {d2.elapsed, d2.checksum, m2.elapsed, m2.checksum, d3.elapsed,
                          d3.checksum, static_cast<double>(d3.work_tickets), m3.elapsed,
                          m3.checksum});
  }

 private:
  int nodes2_, nodes3_;
  dcuda::apps::particles::Config p2_;
  dcuda::apps::dpd3d::Config p3_;
  dcuda::apps::particles::Result ref2_;
  dcuda::apps::dpd3d::Result ref3_;
};

}  // namespace

std::vector<double> RepTotals::traced_fingerprint() const {
  std::vector<double> f(std::begin(category_s), std::end(category_s));
  f.push_back(overlap_s);
  f.push_back(comm_s);
  f.insert(f.end(), wait_us.begin(), wait_us.end());
  for (const auto& [name, v] : metrics) f.push_back(v);
  f.insert(f.end(), put_notify_us.begin(), put_notify_us.end());
  f.insert(f.end(), exchange_us.begin(), exchange_us.end());
  return f;
}

void Rep::config(const std::string& name, const ClusterSpec& spec, bool mpi_variant,
                 const std::function<void(Cluster&)>& setup,
                 const std::function<void(Cluster&)>& run,
                 const std::function<bool(Cluster&)>& check) {
  SpanLog::Scope cfg_span(log_, name, span_);
  std::unique_ptr<Cluster> c;
  {
    SpanLog::Scope sp(log_, "cluster.setup", cfg_span.id());
    c = std::make_unique<Cluster>(spec);
    if (traced_) c->tracer().enable();
    if (setup) setup(*c);
  }
  ++t_.runs;
  bool ok = true;
  {
    SpanLog::Scope sp(log_, "run", cfg_span.id());
    try {
      run(*c);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n", name.c_str(), e.what());
      ok = false;
    }
  }
  if (ok && !check(*c)) {
    std::fprintf(stderr, "perfbench: %s failed its output check\n", name.c_str());
    ok = false;
  }
  if (!ok) ++t_.failed;
  collect(*c, mpi_variant);
  {
    SpanLog::Scope sp(log_, "cluster.teardown", cfg_span.id());
    c.reset();
  }
}

void Rep::check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  ++t_.failed;
}

void Rep::collect(Cluster& c, bool mpi_variant) {
  const std::size_t events = c.sim().events_processed();
  const auto pool = c.sim().pool_stats();
  std::uint64_t msgs = 0, txns = 0, bells = 0, sends = 0, staged = 0, direct = 0;
  double bytes = 0.0;
  for (int n = 0; n < c.num_nodes(); ++n) {
    msgs += c.fabric().messages_sent(n);
    bytes += c.fabric().bytes_sent(n);
    txns += c.pcie(n).transactions(dcuda::pcie::Dir::kHostToDevice) +
            c.pcie(n).transactions(dcuda::pcie::Dir::kDeviceToHost);
    bells += c.pcie(n).doorbells();
    if (mpi_variant) {
      sends += c.mpi(n).sends_started();
      staged += c.mpi(n).staged_transfers();
      direct += c.mpi(n).direct_device_transfers();
    }
  }
  t_.events += events;
  t_.pool_slots += pool.pool_slots;
  t_.pool_growths += pool.pool_growths;
  t_.heap_fallbacks += pool.heap_fallbacks;
  t_.net_messages += msgs;
  t_.net_bytes += bytes;
  t_.pcie_transactions += txns;
  t_.pcie_doorbells += bells;
  t_.mpi_sends += sends;
  t_.mpi_staged += staged;
  t_.mpi_direct += direct;
  for (double v : {static_cast<double>(events), static_cast<double>(pool.pool_slots),
                   static_cast<double>(pool.pool_growths),
                   static_cast<double>(pool.heap_fallbacks), static_cast<double>(msgs), bytes,
                   static_cast<double>(txns), static_cast<double>(bells),
                   static_cast<double>(sends), static_cast<double>(staged),
                   static_cast<double>(direct)}) {
    t_.fingerprint.push_back(v);
  }

  if (!traced_) return;
  const sim::TraceSummary s = sim::summarize(c.tracer());
  for (int k = 0; k < sim::kNumCategories; ++k) t_.category_s[k] += s.by_category[k];
  t_.overlap_s += s.overlap_time;
  t_.comm_s += s.comm_time;
  t_.wait_us.insert(t_.wait_us.end(), s.wait_us.sorted().begin(), s.wait_us.sorted().end());
  for (const auto& [name, v] : c.tracer().metrics()) t_.metrics[name] += v;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale) {
  if (name == "stencil") return std::make_unique<Stencil>(scale);
  if (name == "overlap") return std::make_unique<Overlap>(seed, scale);
  if (name == "particles") return std::make_unique<Particles>(seed, scale);
  return nullptr;
}

}  // namespace perfbench
