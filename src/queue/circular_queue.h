#pragma once

// Host↔device circular-buffer queue (§III-C of the paper).
//
// The ring lives in receiver memory. The sender embeds a sequence number in
// every entry, so the receiver detects valid entries without a shared head
// pointer, and one posted transaction suffices per enqueue. Flow control is
// credit based: the sender decrements a local free counter per enqueue and
// only when it reaches zero pays an extra (mapped-read) transaction to fetch
// the receiver's tail pointer.
//
// The queue is functional, not just a timing model: entries really move
// through ring slots guarded by sequence numbers, and the tests exercise
// wrap-around, credit exhaustion, and overwrite protection.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/invariants.h"
#include "sim/proc.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/trigger.h"

namespace dcuda::queue {

// The commit of one posted entry write: makes staged entries of `queue`
// visible at the receiver. A plain function pointer plus two words — 24
// bytes, so it travels in the event slot's inline buffer and the posted
// write allocates nothing (docs/PERF.md, "Frame-free leaf operations").
struct Commit {
  void (*fn)(void* queue, std::uint64_t word);
  void* queue;
  std::uint64_t word;  // which entries: (first sequence number << 16) | count
  void operator()() const { fn(queue, word); }
};

// How enqueue operations reach the receiver's memory. The entry write is
// posted (issuer continues; `commit` fires when the write is visible at the
// receiver); the tail read blocks the issuer for a round trip.
struct Transport {
  // write(ctx, bytes, commit): posts the entry write of `bytes`, which runs
  // commit() at visibility, and returns the issuer's hold time (0: the
  // issuer continues at once, without an event).
  sim::Dur (*write)(void* ctx, double bytes, Commit commit) = nullptr;
  void* ctx = nullptr;
  // read_tail(bytes): blocking remote read of the tail pointer.
  std::function<sim::Proc<void>(double)> read_tail;
};

// A zero-cost transport for queues whose both ends live in the same memory.
Transport local_transport(sim::Simulation& s);

// Tracer names of one queue kind (`<base>_depth`, `<base>_enqueues`,
// `<base>_tail_reads`). Built once per kind and shared by every queue of
// that kind, so tracing hooks cost no per-queue strings.
struct TraceNames {
  explicit TraceNames(const std::string& base)
      : depth(base + "_depth"),
        enqueues(base + "_enqueues"),
        tail_reads(base + "_tail_reads") {}
  std::string depth;
  std::string enqueues;
  std::string tail_reads;
};

template <typename Entry>
class CircularQueue {
 public:
  // The ring is allocated from `ring_memory`; owners of many queues pass
  // one arena so their rings share an allocation (see ring_bytes).
  CircularQueue(sim::Simulation& s, int capacity, Transport transport,
                std::pmr::memory_resource* ring_memory =
                    std::pmr::new_delete_resource())
      : sim_(s),
        transport_(std::move(transport)),
        ring_(static_cast<size_t>(capacity), ring_memory),
        credits_(capacity),
        nonempty_(s) {
    assert(capacity > 0);
  }

  // Bytes a ring of `capacity` entries takes from its memory resource.
  static constexpr std::size_t ring_bytes(int capacity) {
    return static_cast<std::size_t>(capacity) * sizeof(Slot);
  }

  // Observability hook (docs/OBSERVABILITY.md): enqueue commits and
  // dequeues maintain the device-wide `<name>_depth` counter and bump
  // `<name>_enqueues` / `<name>_tail_reads` metrics on the tracer. Many
  // queues may share one (tracer, device, names) triple — the counter then
  // aggregates their occupancy. `names` must outlive the queue.
  void set_tracer(sim::Tracer* t, std::int32_t device, const TraceNames& names) {
    tracer_ = t;
    trace_device_ = device;
    names_ = &names;
  }

  // Sender side. Blocks (simulated) while the queue is full; costs one
  // posted write plus an occasional tail read.
  sim::Proc<void> enqueue(Entry e) {
    while (credits_ == 0) {
      ++tail_reads_;
      if (traced()) tracer_->bump(names_->tail_reads);
      co_await transport_.read_tail(sizeof(std::uint64_t));
      recompute_credits();
      if (credits_ == 0) co_await sim_.delay(full_poll_interval_);
    }
    --credits_;
    const std::uint64_t seq = ++send_count_;
    if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
      obs->queue_credit(send_count_, recv_count_, capacity());
    }
    ++enqueues_;
    if (traced()) tracer_->bump(names_->enqueues);
    // Stage the entry into its ring slot right away: holding a credit means
    // the receiver already consumed the slot's previous occupant, and the
    // entry stays invisible until the sequence number is committed below.
    {
      Slot& slot = ring_[static_cast<size_t>((seq - 1) % ring_.size())];
      assert(slot.seq + ring_.size() == seq || slot.seq == 0);
      slot.entry = std::move(e);
    }
    // The posted write carries entry + sequence number in one transaction.
    assert(seq < (1ull << 48) &&
           "packed commit word reserves 48 bits for the sequence");
    co_await sim_.hold(transport_.write(transport_.ctx,
                                        sizeof(Entry) + sizeof(std::uint64_t),
                                        Commit{&commit, this, (seq << 16) | 1}));
  }

  // Batched sender side (the eager path's notification sweep, §III-C spirit:
  // one transaction, many entries). Stages as many entries as the sender
  // holds credits for and commits them with a single posted write carrying
  // all entries plus one sequence number; the receiver sees the whole chunk
  // appear atomically. Falls back to multiple chunks when credits run short,
  // so any batch size makes progress against any capacity.
  sim::Proc<void> enqueue_batch(std::vector<Entry> es) {
    std::size_t next = 0;
    while (next < es.size()) {
      while (credits_ == 0) {
        ++tail_reads_;
        if (traced()) tracer_->bump(names_->tail_reads);
        co_await transport_.read_tail(sizeof(std::uint64_t));
        recompute_credits();
        if (credits_ == 0) co_await sim_.delay(full_poll_interval_);
      }
      const std::uint64_t chunk =
          std::min<std::uint64_t>({es.size() - next,
                                   static_cast<std::uint64_t>(credits_),
                                   kMaxBatchChunk});
      credits_ -= static_cast<int>(chunk);
      const std::uint64_t first_seq = send_count_ + 1;
      send_count_ += chunk;
      if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
        obs->queue_credit(send_count_, recv_count_, capacity());
      }
      enqueues_ += chunk;
      if (traced()) tracer_->bump(names_->enqueues, static_cast<double>(chunk));
      for (std::uint64_t i = 0; i < chunk; ++i) {
        Slot& slot =
            ring_[static_cast<size_t>((first_seq + i - 1) % ring_.size())];
        assert(slot.seq + ring_.size() == first_seq + i || slot.seq == 0);
        slot.entry = std::move(es[next + i]);
      }
      next += chunk;
      // One posted transaction carries every staged entry plus a single
      // sequence number; the commit packs (first_seq, chunk) into its one
      // word.
      assert(first_seq < (1ull << 48) &&
             "packed commit word reserves 48 bits for the sequence");
      const std::uint64_t packed = (first_seq << 16) | chunk;
      co_await sim_.hold(transport_.write(
          transport_.ctx,
          static_cast<double>(chunk) * sizeof(Entry) + sizeof(std::uint64_t),
          Commit{&commit, this, packed}));
    }
  }

  // Receiver side: local memory poll, consumes the head entry if its
  // sequence number matches.
  std::optional<Entry> try_dequeue() {
    Slot& slot = ring_[static_cast<size_t>(recv_count_ % ring_.size())];
    if (slot.seq != recv_count_ + 1) return std::nullopt;
    ++recv_count_;  // the tail pointer, in receiver memory
    if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
      obs->queue_credit(send_count_, recv_count_, capacity());
    }
    if (traced()) {
      tracer_->counter_add(sim_.now(), trace_device_, names_->depth, -1.0);
    }
    return slot.entry;
  }

  sim::Proc<Entry> dequeue() {
    for (;;) {
      if (auto e = try_dequeue()) co_return *e;
      co_await nonempty_.wait();
    }
  }

  bool empty() const {
    const Slot& slot = ring_[static_cast<size_t>(recv_count_ % ring_.size())];
    return slot.seq != recv_count_ + 1;
  }

  sim::Trigger& nonempty_trigger() { return nonempty_; }

  int capacity() const { return static_cast<int>(ring_.size()); }
  std::uint64_t enqueues() const { return enqueues_; }
  std::uint64_t tail_reads() const { return tail_reads_; }

 private:
  // Upper bound on entries per batched commit: the commit closure packs the
  // count into the low 16 bits of one word (see enqueue_batch).
  static constexpr std::uint64_t kMaxBatchChunk = 0xffff;

  struct Slot {
    std::uint64_t seq = 0;
    Entry entry{};
  };

  // Commit of `count` entries from `first_seq` on, packed as
  // (first_seq << 16) | count: their sequence numbers become visible.
  static void commit(void* q, std::uint64_t packed) {
    auto& self = *static_cast<CircularQueue*>(q);
    const std::uint64_t first = packed >> 16;
    const std::uint64_t n = packed & 0xffff;
    for (std::uint64_t i = 0; i < n; ++i) {
      self.ring_[static_cast<size_t>((first + i - 1) % self.ring_.size())].seq =
          first + i;
    }
    if (self.traced()) {
      self.tracer_->counter_add(self.sim_.now(), self.trace_device_,
                                self.names_->depth, static_cast<double>(n));
    }
    self.nonempty_.notify_all();
  }

  void recompute_credits() {
    credits_ = static_cast<int>(static_cast<std::uint64_t>(capacity()) -
                                (send_count_ - recv_count_));
  }

  bool traced() const { return tracer_ != nullptr && tracer_->enabled(); }

  sim::Tracer* tracer_ = nullptr;
  std::int32_t trace_device_ = -1;
  const TraceNames* names_ = nullptr;

  sim::Simulation& sim_;
  Transport transport_;
  std::pmr::vector<Slot> ring_;
  std::uint64_t send_count_ = 0;  // sender-side
  std::uint64_t recv_count_ = 0;  // receiver-side tail
  int credits_;
  std::uint64_t enqueues_ = 0;
  std::uint64_t tail_reads_ = 0;
  sim::Dur full_poll_interval_ = sim::micros(2.0);
  sim::Trigger nonempty_;
};

}  // namespace dcuda::queue
