#include "queue/circular_queue.h"

namespace dcuda::queue {

Transport local_transport(sim::Simulation& s) {
  Transport t;
  // Both ends share one memory: the commit is visible at once (one
  // zero-delay event), and the issuer is not held.
  t.write = [](void* sim, double, Commit commit) -> sim::Dur {
    static_cast<sim::Simulation*>(sim)->schedule(0.0, commit);
    return 0.0;
  };
  t.ctx = &s;
  t.read_tail = [](double) -> sim::Proc<void> { co_return; };
  return t;
}

// Transport over a PCIe link is constructed in runtime/ (it owns the link
// and the direction conventions); this translation unit only provides the
// local variant to keep queue/ free of a pcie dependency.

}  // namespace dcuda::queue
