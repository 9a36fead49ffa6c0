#include "sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

namespace dcuda::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Worker-thread pool for multi-threaded windows. The calling thread only
// starts a run and sleeps until it ends; the pool workers execute the
// windows and the serial section between them. Executor groups are
// claimed, not assigned: each window every worker sweeps all groups once,
// starting at its home group w*G/T, and claims each still-unclaimed group
// with one CAS on that group's flag (window epoch - 1 -> epoch). In a
// balanced window every worker claims its home groups, so shards stay on
// warm caches; a worker that is descheduled or slow to wake simply claims
// nothing, and the others take its groups. Completion counts groups, not
// workers: whichever worker finishes a window's last group runs the serial
// section (merge + next bound) and opens the next window itself, so no
// thread has to wake up for the hand-off. Waiting workers spin for a
// bounded budget (windows are microseconds of work, so the barrier must not
// round-trip the kernel while cores are available) and then sleep on the
// futex behind std::atomic::wait — never a sched_yield loop, which burns
// system time when threads outnumber idle cores.
//
// Keeping the calling thread out of the windows also keeps its allocations
// (and so the main malloc arena) exactly those of construction and
// teardown: shard work allocates in the workers' arenas, so peak memory
// does not depend on which thread happened to run which shard.
struct Simulation::Workers {
  using Clock = std::chrono::steady_clock;
  // Spin budget before sleeping; covers a typical window and the serial
  // merge between two windows.
  static constexpr auto kSpinBudget = std::chrono::microseconds(50);

  Workers(Simulation& s, int nthreads, int ngroups)
      : sim(s),
        groups(ngroups),
        claimed(static_cast<size_t>(ngroups)),
        wait_ns(static_cast<size_t>(nthreads)) {
    pool.reserve(static_cast<size_t>(nthreads));
    for (int w = 0; w < nthreads; ++w) {
      pool.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Workers() {
    stop.store(true, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    for (auto& t : pool) t.join();
  }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  int threads() const { return static_cast<int>(pool.size()); }

  // Runs windows until the queues drain or pass `l`; rethrows a failure of
  // the serial section. Window exceptions stay in their shards.
  void run(Time l) {
    limit = l;
    run_start.store(Clock::now().time_since_epoch().count(),
                    std::memory_order_relaxed);
    error = nullptr;
    finished.store(false, std::memory_order_relaxed);
    if (!open_next()) {
      if (error) std::rethrow_exception(error);
      return;
    }
    while (!finished.load(std::memory_order_acquire)) {
      finished.wait(false, std::memory_order_acquire);
    }
    if (error) std::rethrow_exception(error);
  }

  // Serial section: merges the staged events and opens the next window.
  // Returns false, with the run finished, when there is none.
  bool open_next() {
    Time b = 0.0;
    bool more = false;
    try {
      more = sim.next_window(limit, b);
    } catch (...) {
      error = std::current_exception();
    }
    if (!more) return false;
    bound = b;
    remaining.store(groups, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    return true;
  }

  void worker_loop(int w) {
    std::uint32_t seen = 0;
    for (;;) {
      const auto t0 = Clock::now();
      auto opened = [&] { return epoch.load(std::memory_order_acquire) != seen; };
      if (!spin_until(opened, t0)) {
        epoch.wait(seen, std::memory_order_acquire);
      }
      seen = epoch.load(std::memory_order_acquire);
      // Idle time between runs is not a barrier wait.
      const Clock::time_point start{
          Clock::duration{run_start.load(std::memory_order_relaxed)}};
      add_wait(w, std::max(t0, start));
      if (stop.load(std::memory_order_relaxed)) return;
      claim_groups(w, seen);
    }
  }

  // Claims and executes the groups of window `e` that no other worker has
  // claimed yet. A claim succeeds only while window e is open: every group
  // is claimed exactly once per window, so at window open all flags read
  // e - 1, and a worker holding a stale epoch expects an older value and
  // fails. The window cannot complete while a group is unclaimed, so a
  // claimant's reads of bound/limit (published before the release of
  // `epoch` that produced e) cannot race with the next window's writes.
  // Group g owns shards g, g+G, ....
  void claim_groups(int w, std::uint32_t e) {
    const int n = static_cast<int>(sim.shards_.size());
    const int home = w * groups / threads();
    for (int i = 0; i < groups; ++i) {
      const int g = (home + i) % groups;
      std::atomic<std::uint32_t>& flag = claimed[static_cast<size_t>(g)].epoch;
      std::uint32_t expect = e - 1;
      if (flag.load(std::memory_order_relaxed) != expect ||
          !flag.compare_exchange_strong(expect, e, std::memory_order_relaxed)) {
        continue;
      }
      for (int s = g; s < n; s += groups) {
        sim.exec_shard(*sim.shards_[static_cast<size_t>(s)], bound, limit);
      }
      // The acq_rel countdown orders every group's shard writes before the
      // serial section that the last finisher runs.
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (!open_next()) {
          finished.store(true, std::memory_order_release);
          finished.notify_one();
        }
        return;
      }
    }
  }

  // Spins until done() holds or the spin budget (counted from t0) runs out.
  template <typename Pred>
  static bool spin_until(Pred done, Clock::time_point t0) {
    for (;;) {
      for (int i = 0; i < 64; ++i) {
        if (done()) return true;
        cpu_relax();
      }
      if (Clock::now() - t0 > kSpinBudget) return false;
    }
  }

  // Barrier-wait accounting: each worker only ever adds to its own slot.
  void add_wait(int w, Clock::time_point t0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    auto& slot = wait_ns[static_cast<size_t>(w)].ns;
    slot.store(slot.load(std::memory_order_relaxed) +
                   static_cast<std::uint64_t>(ns),
               std::memory_order_relaxed);
  }

  // One cache line per flag/slot: neighbours are written by other workers.
  struct alignas(64) ClaimFlag {
    std::atomic<std::uint32_t> epoch{0};  // last window that claimed the group
  };
  struct alignas(64) WaitSlot {
    std::atomic<std::uint64_t> ns{0};
  };

  Simulation& sim;
  const int groups;
  std::vector<ClaimFlag> claimed;  // per executor group
  // Run and window parameters, written before the release of `epoch` that
  // opens a window. `epoch` and `remaining` sit on lines of their own:
  // workers spin on the first while the second takes every group's
  // completion.
  Time limit = 0.0;
  Time bound = 0.0;
  // Atomic: a late worker may read it while the next run() writes it.
  std::atomic<Clock::rep> run_start{0};
  std::exception_ptr error;  // serial-section failure, rethrown by run()
  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  alignas(64) std::atomic<std::uint32_t> epoch{0};  // bumped per window
  alignas(64) std::atomic<int> remaining{0};  // groups not yet finished
  std::vector<WaitSlot> wait_ns;  // per worker
  std::vector<std::thread> pool;
};

Simulation::Simulation() {
  shards_.push_back(std::make_unique<Shard>(0, this));
  shards_[0]->outbound.resize(1);
}

Simulation::~Simulation() {
  workers_.reset();  // join worker threads before tearing down shard state
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    // Destroy frames of processes that never completed (daemons, or roots
    // left behind after run_until / an exception). Frames are suspended, so
    // destroy is legal. Handles in triggers/resources become dangling but
    // are never resumed again because the simulation is gone.
    auto reap = [](std::vector<std::shared_ptr<JoinHandle::State>>& v) {
      for (auto& st : v) {
        if (!st->done && st->frame) st->frame.destroy();
      }
      v.clear();
    };
    reap(sh.live);
    reap(sh.daemons);
    // Free payloads of events still pending (or cancelled-but-unpopped): the
    // key heap plus the resume ring list exactly the occupied slots, once
    // each. (Ring slots are direct resumes and carry no payload, but walking
    // them keeps the invariant obvious.)
    for (std::size_t i = 0; i < sh.heap_size; ++i) {
      destroy_payload(
          slot(sh, static_cast<std::uint32_t>(sh.heap_data[i].key & kSlotMask)));
    }
    for (std::size_t i = sh.ring_head; i < sh.ring.size(); ++i) {
      destroy_payload(
          slot(sh, static_cast<std::uint32_t>(sh.ring[i].key & kSlotMask)));
    }
    heap_dealloc(sh);
    // Staged cross-shard events that never merged.
    for (auto& out : sh.outbound) {
      for (Staged& e : out) e.destroy(e.fn);
      out.clear();
    }
  }
}

void Simulation::configure_shards(int n) {
  assert(n >= 1);
  assert(shards_.size() == 1 && "configure_shards may only be called once");
  assert(shards_[0]->pool_size == 0 && shards_[0]->next_seq == 0 &&
         "configure_shards must precede any scheduling");
  for (int k = 1; k < n; ++k) {
    shards_.push_back(std::make_unique<Shard>(k, this));
  }
  for (auto& sh : shards_) {
    sh->outbound.resize(shards_.size());
    if (has_perturb_) install_perturbation(*sh);
  }
}

void Simulation::heap_grow(Shard& sh) {
  // Element 0 sits 48 bytes into a 64-byte-aligned block so that elements
  // 4i+1 .. 4i+4 — the children of node i — share one cache line.
  const std::size_t cap = sh.heap_cap > 0 ? sh.heap_cap * 2 : 1024;
  void* raw = ::operator new(48 + cap * sizeof(HeapEntry), std::align_val_t{64});
  auto* data = reinterpret_cast<HeapEntry*>(static_cast<unsigned char*>(raw) + 48);
  if (sh.heap_size > 0) {
    std::memcpy(data, sh.heap_data, sh.heap_size * sizeof(HeapEntry));
  }
  heap_dealloc(sh);
  sh.heap_data = data;
  sh.heap_cap = cap;
}

void Simulation::heap_dealloc(Shard& sh) {
  if (sh.heap_data != nullptr) {
    ::operator delete(reinterpret_cast<unsigned char*>(sh.heap_data) - 48,
                      std::align_val_t{64});
    sh.heap_data = nullptr;
  }
}

void Simulation::heap_push(Shard& sh, HeapEntry e) {
  if (sh.heap_size == sh.heap_cap) heap_grow(sh);
  std::size_t i = sh.heap_size++;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!key_less(e, sh.heap_data[parent])) break;
    sh.heap_data[i] = sh.heap_data[parent];
    i = parent;
  }
  sh.heap_data[i] = e;
}

Simulation::HeapEntry Simulation::heap_pop(Shard& sh) {
  const HeapEntry top = sh.heap_data[0];
  const HeapEntry last = sh.heap_data[--sh.heap_size];
  const std::size_t n = sh.heap_size;
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      // The sift is a chain of dependent cache misses in a deep heap;
      // prefetching all four grandchild groups (one line each) overlaps the
      // next level's fetch with this level's compare, whichever child wins.
      const std::size_t gfirst = 4 * first + 1;
      if (gfirst < n) {
        __builtin_prefetch(&sh.heap_data[gfirst]);
        __builtin_prefetch(&sh.heap_data[gfirst + 4]);
        __builtin_prefetch(&sh.heap_data[gfirst + 8]);
        __builtin_prefetch(&sh.heap_data[gfirst + 12]);
      }
      std::size_t min_child = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (key_less(sh.heap_data[c], sh.heap_data[min_child])) min_child = c;
      }
      if (!key_less(sh.heap_data[min_child], last)) break;
      sh.heap_data[i] = sh.heap_data[min_child];
      i = min_child;
    }
    sh.heap_data[i] = last;
  }
  return top;
}

JoinHandle Simulation::spawn(Proc<void> p, std::string name, bool daemon) {
  Shard& home = cur();
  auto st = std::make_shared<JoinHandle::State>();
  st->name = std::move(name);
  st->daemon = daemon;
  st->sim = this;
  st->home_shard = home.index;

  // The process runs as the root itself: no wrapper frame. The registry
  // below holds the state until the completion hook marked it done, so the
  // state can serve as the hook's argument.
  auto h = p.release();
  assert(h && "spawning an empty Proc");
  h.promise().detached = true;
  st->frame = h;
  h.promise().on_final = &Simulation::finish_root;
  h.promise().on_final_arg = st.get();
  auto& registry = daemon ? home.daemons : home.live;
  std::size_t& done_count = daemon ? home.done_daemons : home.done_live;
  registry.push_back(st);
  // Completed states would otherwise accumulate forever (one per spawned
  // process — millions in long runs). Compact only when at least half the
  // registry is dead, so workloads with thousands of concurrently live
  // processes don't rescan it on every spawn.
  if (registry.size() >= 4096 && done_count * 2 >= registry.size()) {
    std::erase_if(registry, [](const auto& q) { return q->done; });
    done_count = 0;
  }
  schedule_resume(h);
  return JoinHandle(st);
}

// Completion hook of a root process. Updates the spawning shard's registry
// counters — processes that finish do so on their home shard (the affinity
// asserts enforce this for multi-threaded windows).
void Simulation::finish_root(void* state, detail::PromiseBase& p) {
  auto* st = static_cast<JoinHandle::State*>(state);
  // The frame is destroyed right after this hook: keep its exception.
  st->exception = p.exception;
  Shard& home = *st->sim->shards_[static_cast<size_t>(st->home_shard)];
  st->done = true;
  st->frame = nullptr;
  ++(st->daemon ? home.done_daemons : home.done_live);
  if (st->exception && st->joiners.empty()) {
    home.escaped.push_back(st->exception);
  }
  for (auto j : st->joiners) st->sim->schedule_resume(j);
  st->joiners.clear();
}

Proc<void> JoinHandle::join() {
  struct Awaiter {
    State* st;
    bool await_ready() const noexcept { return st->done; }
    void await_suspend(std::coroutine_handle<> h) { st->joiners.push_back(h); }
    void await_resume() const noexcept {}
  };
  while (!st_->done) co_await Awaiter{st_.get()};
  if (st_->exception && !st_->exception_consumed) {
    st_->exception_consumed = true;
    std::rethrow_exception(st_->exception);
  }
}

bool Simulation::step(Shard& sh, Time bound, Time limit) {
  for (;;) {
    HeapEntry e;
    bool from_ring;
    const bool ring_pending = sh.ring_head < sh.ring.size();
    if (ring_pending && (sh.heap_size == 0 ||
                         key_less(sh.ring[sh.ring_head], sh.heap_data[0]))) {
      // Zero-delay resume ring: entries are pre-sorted (all at `now`, seq
      // ascending), so this is the shard's minimum.
      e = sh.ring[sh.ring_head];
      from_ring = true;
    } else if (sh.heap_size > 0) {
      e = sh.heap_data[0];
      from_ring = false;
    } else {
      return false;
    }
    // Window horizon (strict) and run_until limit (inclusive): events at or
    // past the bound stay queued for a later window.
    if (e.t >= bound || e.t > limit) return false;
    if (from_ring) {
      ++sh.ring_head;
      if (sh.ring_head == sh.ring.size()) {
        sh.ring.clear();
        sh.ring_head = 0;
      }
    } else {
      // Start fetching the winning event's slot line before the sift-down
      // touches the heap: the two are independent, so the slot arrives from
      // cache by the time dispatch needs it.
      __builtin_prefetch(
          &slot(sh, static_cast<std::uint32_t>(sh.heap_data[0].key & kSlotMask)));
      e = heap_pop(sh);
    }
    const std::uint32_t si = static_cast<std::uint32_t>(e.key & kSlotMask);
    EventSlot& s = slot(sh, si);
    if ((s.gen & kGenCancelled) != 0u) {
      destroy_payload(s);
      release_slot(sh, si);
      continue;
    }
    sh.now = e.t;
    ++sh.events_processed;
    if (s.invoke == nullptr) {
      // Direct resume. Release before resuming: the slot is immediately
      // reusable (warm for whatever the coroutine schedules next) and holds
      // no payload.
      void* addr;
      std::memcpy(&addr, s.buf, sizeof(addr));
      release_slot(sh, si);
      std::coroutine_handle<>::from_address(addr).resume();
    } else {
      // Invoke in place; the slot stays off the free list during the call,
      // and chunks never move, so `s` stays valid if the callback schedules
      // (and thereby grows the pool).
      s.invoke(s.buf);
      destroy_payload(s);
      release_slot(sh, si);
    }
    return true;
  }
}

void Simulation::exec_shard(Shard& sh, Time bound, Time limit) {
  ShardGuard g(*this, sh.index);
  const std::size_t before = sh.events_processed;
  try {
    while (step(sh, bound, limit)) {
    }
  } catch (...) {
    sh.window_exception = std::current_exception();
  }
  if (sh.events_processed != before) {
    ++sh.busy_windows;
    sh.window_events += sh.events_processed - before;
  }
}

// Applies every staged cross-shard event. For each destination, arrivals
// from all sources are ordered by (time, src shard, src sequence) — a fixed
// rule independent of which thread executed which shard — and then keyed
// with the destination's own insertion sequence, so the merged schedule is
// a pure function of the logical run.
void Simulation::merge_staged() {
  const int n = static_cast<int>(shards_.size());
  for (int d = 0; d < n; ++d) {
    merge_scratch_.clear();
    for (int s = 0; s < n; ++s) {
      auto& out = shards_[static_cast<size_t>(s)]->outbound[static_cast<size_t>(d)];
      for (const Staged& e : out) merge_scratch_.emplace_back(e, s);
      out.clear();
    }
    if (merge_scratch_.empty()) continue;
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const std::pair<Staged, int>& a, const std::pair<Staged, int>& b) {
                if (a.first.t != b.first.t) return a.first.t < b.first.t;
                if (a.second != b.second) return a.second < b.second;
                return a.first.seq < b.first.seq;
              });
    Shard& to = *shards_[static_cast<size_t>(d)];
    for (auto& m : merge_scratch_) {
      const Staged& e = m.first;
      // Move the staged callable into a slot-sized runner that frees it
      // after the call (or on teardown if the event never fires).
      struct Runner {
        void* fn;
        void (*invoke)(void*);
        void (*free_fn)(void*);
        Runner(void* f, void (*i)(void*), void (*d2)(void*))
            : fn(f), invoke(i), free_fn(d2) {}
        Runner(Runner&& o) noexcept
            : fn(o.fn), invoke(o.invoke), free_fn(o.free_fn) {
          o.fn = nullptr;
        }
        Runner(const Runner&) = delete;
        Runner& operator=(const Runner&) = delete;
        Runner& operator=(Runner&&) = delete;
        ~Runner() {
          if (fn != nullptr) free_fn(fn);
        }
        void operator()() {
          void* f = fn;
          fn = nullptr;
          invoke(f);
          free_fn(f);
        }
      };
      emplace_event(to, e.t, Runner(e.fn, e.invoke, e.destroy));
    }
  }
}

void Simulation::run_events(Time limit) {
  if (shards_.size() == 1) {
    // Classic sequential engine: one shard, no windows, no merges —
    // byte-identical to the historical single-threaded schedule.
    Shard& sh = *shards_[0];
    ShardGuard g(*this, 0);
    while (step(sh, kInfTime, limit)) {
    }
    return;
  }
  run_windows(limit);
}

// Serial section between two windows: merges the staged cross-shard
// events and computes the next window's bound. False when the run is over:
// a shard threw, the queues drained, or the next event is past `limit`.
bool Simulation::next_window(Time limit, Time& bound) {
  for (const auto& sh : shards_) {
    if (sh->window_exception) return false;
  }
  merge_staged();
  Time m = kInfTime;
  for (const auto& sh : shards_) m = std::min(m, next_time(*sh));
  if (m == kInfTime || m > limit) return false;  // drained, or past run_until
  bound = m + lookahead_;
  ++windows_;
  return true;
}

void Simulation::run_windows(Time limit) {
  if (lookahead_ <= 0.0) {
    throw std::logic_error(
        "Simulation: multi-shard run requires a positive lookahead "
        "(register_lookahead)");
  }
  const int n = static_cast<int>(shards_.size());
  const int groups = exec_groups_req_ > 0 ? std::min(exec_groups_req_, n) : n;
  const int threads = std::min(exec_threads_req_, groups);
  if (threads > 1) {
    if (workers_ == nullptr || workers_->threads() != threads ||
        workers_->groups != groups) {
      workers_ = std::make_unique<Workers>(*this, threads, groups);
    }
    parallel_window_ = true;
    try {
      workers_->run(limit);
    } catch (...) {
      parallel_window_ = false;
      throw;
    }
    parallel_window_ = false;
  } else {
    Time bound = 0.0;
    while (next_window(limit, bound)) {
      for (int g = 0; g < groups; ++g) {
        for (int s = g; s < n; s += groups) {
          exec_shard(*shards_[static_cast<size_t>(s)], bound, limit);
        }
      }
    }
  }
  // Window failures surface in shard order, whatever thread ran the shard.
  for (auto& sh : shards_) {
    if (sh->window_exception) {
      auto ex = sh->window_exception;
      sh->window_exception = nullptr;
      std::rethrow_exception(ex);
    }
  }
}

Simulation::WindowStats Simulation::window_stats() const {
  WindowStats w;
  w.windows = windows_;
  for (const auto& sh : shards_) {
    w.busy_shard_windows += sh->busy_windows;
    w.events += sh->window_events;
  }
  if (workers_ != nullptr) {
    for (const auto& slot : workers_->wait_ns) {
      w.barrier_wait_s.push_back(
          static_cast<double>(slot.ns.load(std::memory_order_relaxed)) * 1e-9);
    }
  }
  return w;
}

// Aligns every shard clock (and the global clock) on max(shard clocks,
// at_least). Runs after the queues drained, so advancing a lagging shard is
// safe, and keeps post-run scheduling from the main thread consistent: all
// clocks agree between runs, exactly like the classic single-clock engine.
void Simulation::sync_clocks(Time at_least) {
  Time mx = at_least;
  for (const auto& sh : shards_) mx = std::max(mx, sh->now);
  for (auto& sh : shards_) sh->now = mx;
  global_now_ = mx;
}

void Simulation::run() {
  try {
    run_events(kInfTime);
  } catch (...) {
    sync_clocks(0.0);
    throw;
  }
  sync_clocks(0.0);
  rethrow_pending();
  check_deadlock();
}

void Simulation::run_until(Time t) {
  try {
    run_events(t);
  } catch (...) {
    sync_clocks(0.0);
    throw;
  }
  sync_clocks(t);
  rethrow_pending();
}

void Simulation::rethrow_pending() {
  for (const auto& sh : shards_) {
    if (!sh->escaped.empty()) {
      auto ex = sh->escaped.front();
      for (auto& s2 : shards_) s2->escaped.clear();
      std::rethrow_exception(ex);
    }
  }
}

void Simulation::check_deadlock() const {
  std::vector<std::string> stuck;
  for (const auto& sh : shards_) {
    for (const auto& st : sh->live) {
      if (!st->done) stuck.push_back(st->name);
    }
  }
  if (stuck.empty()) return;
  std::ostringstream os;
  os << "deadlock: " << stuck.size()
     << " process(es) blocked with no pending events:";
  for (const auto& n : stuck) os << ' ' << n;
  throw DeadlockError(os.str());
}

}  // namespace dcuda::sim
