#pragma once

// Multi-rail NIC lanes and the receive-side rail mux (docs/TOPOLOGY.md).
//
// A node with R rails has R independent injection lanes at full NIC
// bandwidth. Messages stripe across rails round-robin by per-(src, dst)
// mux sequence, so consecutive messages of one connection leave on
// different rails and may arrive out of order — different rails, different
// ECMP paths, different congestion. The rail mux at the receiver restores
// the connection order before packets reach the per-pair FIFO mailbox
// stream: the go-back-N layer already guarantees per-rail in-order
// delivery, so the mux only reorders *across* rails (ISSUE: the
// resequencing contract). Holding a buffer is safe — every mux sequence
// eventually arrives, lossy or not, because the reliability layer below
// never gives up on a packet.

#include <cstdint>
#include <map>
#include <vector>

#include "sim/units.h"

namespace dcuda::net {

// Sender-side rail state: per-rail transmit-lane clocks plus the striping
// policy. Lives in the NIC, touched only from the source node's shard.
class RailScheduler {
 public:
  explicit RailScheduler(int rails);

  int rails() const { return static_cast<int>(free_.size()); }
  // Round-robin striping by connection mux sequence (1-based).
  int pick(std::uint64_t mux_seq) const {
    return static_cast<int>((mux_seq - 1) %
                            static_cast<std::uint64_t>(free_.size()));
  }
  // The rail's transmit lane: busy-until clock, serialized per rail.
  sim::Time& lane(int rail) { return free_[static_cast<std::size_t>(rail)]; }

 private:
  std::vector<sim::Time> free_;
};

// Receive-side per-connection resequencer: releases packets in strict mux
// sequence order (1, 2, 3, ...), buffering gaps. One instance per (src)
// origin at each destination NIC, touched only from that node's shard.
template <typename P>
class Resequencer {
 public:
  // Offers a packet; calls release(P) for every packet that is now in
  // order (possibly none, possibly several when a gap closes). An in-order
  // offer with nothing buffered is released straight through.
  template <typename Release>
  void offer(std::uint64_t seq, P pkt, Release&& release) {
    if (seq == next_) {
      ++next_;
      release(std::move(pkt));
      auto it = buffer_.begin();
      while (it != buffer_.end() && it->first == next_) {
        ++next_;
        release(std::move(it->second));
        it = buffer_.erase(it);
      }
      return;
    }
    // seq < next_ cannot happen under the reliability contract (per-rail
    // exactly-once + unique mux sequences); buffering it would wedge the
    // stream, so the map keyed on seq simply keeps the latest.
    buffer_.insert_or_assign(seq, std::move(pkt));
  }

  std::uint64_t released() const { return next_ - 1; }
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::uint64_t next_ = 1;
  std::map<std::uint64_t, P> buffer_;
};

}  // namespace dcuda::net
