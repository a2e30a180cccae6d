// One-shot synchronization condition.
//
// Guests wait on a SyncEvent either spinning (kSpinWait: the VCPU stays
// runnable and burns CPU — the user-space MPI busy-poll model) or blocked
// (kBlockWait: the VCPU halts and is woken with BOOST — the kernel/IRQ
// model).  A SyncEvent is signalled at most once between resets;
// steady-state consumers (dom0's idle wait, BspApp's generation ring of
// barrier events) reset() and reuse their events.
//
// The waiter list is intrusive: a FIFO threaded through
// Vcpu::EngineState::next_waiter.  A VCPU waits on at most one event at a
// time, so one link per VCPU suffices and registering, signalling and
// resetting never touch the allocator — an event is two pointers of list
// state, not two heap buffers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "simcore/time.h"
#include "virt/vcpu.h"

namespace atcsim::virt {

class Engine;

class SyncEvent {
 public:
  /// Forward range over the registered waiters in registration order.
  class WaiterRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Vcpu*;
      using difference_type = std::ptrdiff_t;
      using pointer = Vcpu* const*;
      using reference = Vcpu*;

      iterator() = default;
      explicit iterator(Vcpu* v) : v_(v) {}
      Vcpu* operator*() const { return v_; }
      iterator& operator++() {
        v_ = v_->eng().next_waiter;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const { return v_ == o.v_; }
      bool operator!=(const iterator& o) const { return v_ != o.v_; }

     private:
      Vcpu* v_ = nullptr;
    };

    explicit WaiterRange(Vcpu* head) : head_(head) {}
    iterator begin() const { return iterator(head_); }
    iterator end() const { return iterator(); }
    bool empty() const { return head_ == nullptr; }

   private:
    Vcpu* head_;
  };

  explicit SyncEvent(Engine& engine) : engine_(&engine) {}
  SyncEvent(const SyncEvent&) = delete;
  SyncEvent& operator=(const SyncEvent&) = delete;
  /// Moves a waiter-free event (BspApp builds its flat barrier ring by
  /// value).  Nothing ever needs to move a linked list's head, so moving an
  /// event with waiters is asserted against.
  SyncEvent(SyncEvent&& o) noexcept
      : engine_(o.engine_), signalled_(o.signalled_),
        effect_when_(o.effect_when_), effect_seq_(o.effect_seq_) {
    assert(o.head_ == nullptr && "moving a SyncEvent with waiters");
  }
  SyncEvent& operator=(SyncEvent&&) = delete;

  /// Re-homes the event onto another engine (live migration: the owning
  /// workload travels with its VM and must signal waiters through the
  /// destination platform's engine).  Only legal between events.
  void rebind(Engine& engine) { engine_ = &engine; }

  /// Fires the condition.  Blocked waiters are woken; waiters spinning on a
  /// PCPU proceed immediately; descheduled spinners proceed when next
  /// dispatched (they cannot observe the flag without CPU time).
  void signal();

  bool signalled() const { return signalled_; }

  /// Re-arms a consumed event for the next wait/signal cycle.  Only legal
  /// with no waiters registered (i.e. after every woken waiter has
  /// proceeded).
  void reset() {
    assert(head_ == nullptr && "reset() with waiters still registered");
    signalled_ = false;
  }

  /// Engine bookkeeping: appends a waiter (any wait style) to the FIFO and
  /// marks it wait_registered until signal() hands it to the engine.  A
  /// VCPU waits on at most one event at a time, so `v` must not already be
  /// linked into any event's list.  While a signal_in timer on this event
  /// is pending in the engine's effect index, a waiter-set change re-keys
  /// the index entry (the entry's key is the fire time plus the minimum
  /// waiter effect distance); the cold notify path stays out of line so
  /// the common un-indexed case is one branch.
  void add_waiter(Vcpu& v) {
    auto& e = v.eng();
    assert(!e.wait_registered && "VCPU already on a waiter list");
    assert(e.next_waiter == nullptr);
    e.wait_registered = true;
    if (tail_ == nullptr) {
      head_ = &v;
    } else {
      tail_->eng().next_waiter = &v;
    }
    tail_ = &v;
    if (effect_when_ != 0) notify_effect_waiters_changed();
  }

  /// Currently registered waiters — read by Engine::earliest_effect_time to
  /// bound the network acts a pending timer signal can unleash.
  WaiterRange waiters() const { return WaiterRange(head_); }

  // --- effect-index bookkeeping (Engine::signal_in only) ------------------
  /// Fire time of the pending signal_in timer registered on this event in
  /// the engine's effect index; 0 when none.  At most one timer may be
  /// pending per event (both signal_in users re-arm only after firing).
  sim::SimTime effect_pending_at() const { return effect_when_; }
  /// Version of this event's effect-index entry: heap nodes stamped with an
  /// older sequence are stale and discarded lazily at inspection.
  std::uint32_t effect_seq() const { return effect_seq_; }
  void set_effect_pending(sim::SimTime when) {
    effect_when_ = when;
    ++effect_seq_;
  }
  /// Kills the pending entry (signal consumed it, or migration cancelled
  /// the timer); the sequence bump lazily invalidates any heap node.
  void clear_effect_pending() {
    if (effect_when_ != 0) {
      effect_when_ = 0;
      ++effect_seq_;
    }
  }
  std::uint32_t bump_effect_seq() { return ++effect_seq_; }

 private:
  void notify_effect_waiters_changed();

  Engine* engine_;
  bool signalled_ = false;
  sim::SimTime effect_when_ = 0;
  std::uint32_t effect_seq_ = 0;
  Vcpu* head_ = nullptr;  ///< first registered waiter (woken first)
  Vcpu* tail_ = nullptr;  ///< last registered waiter (append point)
};

}  // namespace atcsim::virt
