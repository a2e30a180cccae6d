// Physical CPU: execution resource owned by a Node.
#pragma once

#include <cstdint>

#include "simcore/event_queue.h"
#include "simcore/time.h"
#include "virt/ids.h"

namespace atcsim::virt {

class Node;
class Vcpu;

class Pcpu {
 public:
  Pcpu(PcpuId id, Node& node, int index_in_node)
      : id_(id), node_(&node), index_in_node_(index_in_node) {}

  PcpuId id() const { return id_; }
  Node& node() { return *node_; }
  const Node& node() const { return *node_; }
  int index_in_node() const { return index_in_node_; }

  Vcpu* current() { return current_; }
  const Vcpu* current() const { return current_; }
  bool idle() const { return current_ == nullptr; }

  // Engine working state (engine.cc is the only writer).
  struct EngineState {
    // Reusable timer slots, created once by Engine::start(): dispatches and
    // slice expiries re-arm in place instead of cancel+alloc+push per cycle.
    sim::TimerId slice_timer;      ///< slice-expiry timer
    sim::TimerId dispatch_timer;   ///< zero-delay dispatch trampoline
    sim::TimerId resched_timer;    ///< deferred (ratelimited) preemption
    /// Compute-finish timer of the current VCPU: only the VCPU on the PCPU
    /// can have a segment in flight, so one slot per PCPU serves them all.
    sim::TimerId segment_timer;
    sim::SimTime slice_end = 0;    ///< absolute end of current slice
    /// Last VCPU that occupied the core; used for the cache-warmth model
    /// (no refill when the same VCPU resumes with nothing in between).
    Vcpu* last_resident = nullptr;
    bool in_dispatch = false;      ///< guards re-entrant scheduling
    bool dispatch_pending = false; ///< a zero-delay dispatch event is queued
    bool resched_pending = false;  ///< a deferred (ratelimited) preemption is queued
  };
  EngineState& eng() { return eng_; }

  void set_current(Vcpu* v) { current_ = v; }

  struct Totals {
    sim::SimTime busy = 0;
    std::uint64_t switches = 0;
  };
  Totals& totals() { return totals_; }
  const Totals& totals() const { return totals_; }

 private:
  PcpuId id_;
  Node* node_;
  int index_in_node_;
  Vcpu* current_ = nullptr;
  EngineState eng_;
  Totals totals_;
};

}  // namespace atcsim::virt
