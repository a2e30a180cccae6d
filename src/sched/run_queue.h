// Indexed, O(1)-membership run queues for the credit scheduler family.
//
// The paper's whole effect lives in run-queue dynamics (spin latency ~
// sum of the slices of VCPUs ahead in the queue), so cluster-scale sweeps
// execute scheduler queue operations billions of times.  The original
// implementation kept one flat std::deque<Vcpu*> per PCPU and did every
// operation by linear scan: removal scanned *all* queues, Balance placement
// scanned every queue per candidate (O(P*n)), and enqueue scanned the whole
// deque for its insertion point.
//
// This container replaces the flat deques with:
//  * one intrusive doubly-linked list per (queue, priority class) bucket —
//    the per-VCPU Vcpu::RunQueueLink handle makes membership tests and
//    unlinks O(1) and allocation-free;
//  * per-queue per-VM sibling counters (dense node-local VM index), so
//    Balance Scheduling's "fewest siblings" placement key is O(1) per queue
//    instead of a queue scan;
//  * priority-bucketed insertion that preserves the credit scheduler's exact
//    ordering semantics: class first (BOOST > UNDER > OVER > PARKED), then
//    larger credit balance first within a class under a dead band, FIFO for
//    near-equal balances.  Bucketing is equivalence-preserving because a
//    queued VCPU's class only changes at credit refill, and every refill is
//    immediately followed by rebucket() (the old resort_queues()).
//
// The pre-rewrite linear-scan structure survives verbatim as the test
// oracle sched::LinearRunQueues (tests/run_queue_ref.h); a differential
// property test drives both through randomized enqueue/remove/steal/refill
// sequences and asserts identical pick order.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <vector>

#include "virt/vcpu.h"

namespace atcsim::sched {

class IndexedRunQueues {
 public:
  /// Cardinality of virt::CreditPrio (bucket index = enum value).
  static constexpr int kClasses = 4;

  /// (Re)initializes for `queues` run queues over `vms` node-local VMs.
  /// Every VCPU inserted later must carry a dense `sched().rq.vm` index in
  /// [0, vms).
  void init(std::size_t queues, std::size_t vms) {
    queues_.assign(queues, Queue{});
    vm_stride_ = vms;
    vm_queued_.assign(queues * vms, 0);
  }

  /// Widens the dense VM index space to `vms` (migration arrival gave a new
  /// VM the next index).  Re-lays the sibling counters out under the new
  /// stride; queue contents are untouched (links live in the VCPUs).
  void grow_vm_stride(std::size_t vms) {
    if (vms <= vm_stride_) return;
    std::vector<int> wide(queues_.size() * vms, 0);
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      for (std::size_t vm = 0; vm < vm_stride_; ++vm) {
        wide[q * vms + vm] = vm_queued_[q * vm_stride_ + vm];
      }
    }
    vm_queued_ = std::move(wide);
    vm_stride_ = vms;
  }

  std::size_t vm_stride() const { return vm_stride_; }

  /// Inserts `v` into queue `q` under class `cls`, before the first element
  /// of the same class whose credit balance is more than `dead_band` below
  /// `v`'s (credit-ordered with FIFO inside the dead band) — byte-identical
  /// ordering to the historical flat-deque scan.
  void insert(virt::Vcpu& v, int q, virt::CreditPrio cls, double dead_band) {
    auto& link = v.sched().rq;
    assert(link.queue < 0 && "VCPU already on a run queue");
    assert(link.vm >= 0 && static_cast<std::size_t>(link.vm) < vm_stride_);
    Queue& rq = queues_[qi(q)];
    Bucket& b = rq.buckets[static_cast<std::size_t>(cls)];
    const double credits = v.sched().credits;
    virt::Vcpu* pos = b.head;
    while (pos != nullptr &&
           !(pos->sched().credits < credits - dead_band)) {
      pos = pos->sched().rq.next;
    }
    link.queue = q;
    link.cls = static_cast<std::int8_t>(cls);
    link_before(b, v, pos);
    ++rq.size;
    ++vm_queued_[qi(q) * vm_stride_ + static_cast<std::size_t>(link.vm)];
  }

  /// Unlinks `v` from whatever queue holds it; false when not queued.  O(1).
  bool erase(virt::Vcpu& v) {
    auto& link = v.sched().rq;
    if (link.queue < 0) return false;
    Queue& rq = queues_[qi(link.queue)];
    unlink(rq.buckets[static_cast<std::size_t>(link.cls)], v);
    --rq.size;
    --vm_queued_[qi(link.queue) * vm_stride_ +
                 static_cast<std::size_t>(link.vm)];
    link.queue = -1;
    link.cls = -1;
    return true;
  }

  /// Head of the best non-empty class bucket of queue `q` (= the front the
  /// flat class-sorted deque used to expose); nullptr when empty.
  virt::Vcpu* front(int q) const {
    for (const Bucket& b : queues_[qi(q)].buckets) {
      if (b.head != nullptr) return b.head;
    }
    return nullptr;
  }

  /// Removes and returns front(q); queue must be non-empty.
  virt::Vcpu* pop_front(int q) {
    virt::Vcpu* v = front(q);
    assert(v != nullptr && "pop_front on an empty run queue");
    erase(*v);
    return v;
  }

  bool contains(const virt::Vcpu& v) const { return v.sched().rq.queue >= 0; }

  std::size_t depth(int q) const { return queues_[qi(q)].size; }
  std::size_t queue_count() const { return queues_.size(); }

  /// Queued (not running) VCPUs of dense node-local VM `vm` in queue `q`.
  int queued_of_vm(int q, int vm) const {
    return vm_queued_[qi(q) * vm_stride_ + static_cast<std::size_t>(vm)];
  }

  /// Stable re-classification after a credit refill: walks each queue in
  /// its current flat order (bucket-major) and re-files every element under
  /// `prio(vcpu)`.  Appending in traversal order preserves the relative
  /// order of same-class elements, i.e. this is exactly the historical
  /// std::stable_sort by priority class over the flat deque.
  template <typename PrioFn>
  void rebucket(PrioFn&& prio) {
    for (Queue& rq : queues_) {
      virt::Vcpu* chain = nullptr;
      virt::Vcpu** tail = &chain;
      for (Bucket& b : rq.buckets) {
        if (b.head == nullptr) continue;
        *tail = b.head;
        tail = &b.tail->sched().rq.next;
        b.head = b.tail = nullptr;
      }
      *tail = nullptr;
      for (virt::Vcpu* v = chain; v != nullptr;) {
        virt::Vcpu* next = v->sched().rq.next;
        const auto cls = static_cast<std::size_t>(prio(*v));
        v->sched().rq.cls = static_cast<std::int8_t>(cls);
        link_before(rq.buckets[cls], *v, nullptr);  // append, stable
        v = next;
      }
    }
  }

 private:
  struct Bucket {
    virt::Vcpu* head = nullptr;
    virt::Vcpu* tail = nullptr;
  };
  struct Queue {
    std::array<Bucket, kClasses> buckets{};
    std::size_t size = 0;
  };

  static std::size_t qi(int q) { return static_cast<std::size_t>(q); }

  /// Links `v` immediately before `pos` in `b` (nullptr = append at tail).
  static void link_before(Bucket& b, virt::Vcpu& v, virt::Vcpu* pos) {
    auto& link = v.sched().rq;
    link.next = pos;
    if (pos != nullptr) {
      link.prev = pos->sched().rq.prev;
      pos->sched().rq.prev = &v;
    } else {
      link.prev = b.tail;
      b.tail = &v;
    }
    if (link.prev != nullptr) {
      link.prev->sched().rq.next = &v;
    } else {
      b.head = &v;
    }
  }

  static void unlink(Bucket& b, virt::Vcpu& v) {
    auto& link = v.sched().rq;
    if (link.prev != nullptr) {
      link.prev->sched().rq.next = link.next;
    } else {
      assert(b.head == &v);
      b.head = link.next;
    }
    if (link.next != nullptr) {
      link.next->sched().rq.prev = link.prev;
    } else {
      assert(b.tail == &v);
      b.tail = link.prev;
    }
    link.prev = link.next = nullptr;
  }

  std::vector<Queue> queues_;
  std::vector<int> vm_queued_;  ///< [queue * vm_stride_ + local_vm]
  std::size_t vm_stride_ = 0;
};

}  // namespace atcsim::sched
