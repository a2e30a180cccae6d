// Differential property test: sched::IndexedRunQueues (the O(1) rewrite)
// against sched::LinearRunQueues (the pre-rewrite linear-scan structure,
// preserved verbatim in run_queue_ref.h).
//
// Both structures are driven through identical randomized sequences of the
// operations the credit scheduler actually performs — enqueue with a class
// and a credit balance, targeted remove, front inspection, pop (dispatch /
// work stealing), and credit-refill rebucketing — and must agree on every
// observable at every step: membership, per-queue depth, per-VM sibling
// counts, front element, and the complete pop order on final drain.
//
// The sequences respect the scheduler's real invariants, which are exactly
// what makes bucketed insertion equivalence-preserving (run_queue.h):
//  * a queued VCPU's credits and class change only at refill steps, and
//    every refill is immediately followed by a rebucket;
//  * an unqueued VCPU may change credits freely before its next enqueue.
#include <gtest/gtest.h>

#include <vector>

#include "sched/run_queue.h"
#include "sched/run_queue_ref.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "virt/platform.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace atcsim {
namespace {

using virt::CreditPrio;
using virt::Vcpu;

// One randomized scenario: builds a single-node platform, assigns the dense
// node-local VM indices exactly as CreditScheduler::attach does, then runs
// `steps` random operations over both structures.
class RunQueueDifferential {
 public:
  RunQueueDifferential(int pcpus, int guest_vms, int vcpus_per_vm,
                       std::uint64_t seed)
      : rng_(seed) {
    virt::PlatformConfig cfg;
    cfg.nodes = 1;
    cfg.pcpus_per_node = pcpus;
    cfg.seed = seed;
    platform_ = std::make_unique<virt::Platform>(sim_, cfg);
    for (int i = 0; i < guest_vms; ++i) {
      platform_->create_vm(virt::NodeId{0}, virt::VmType::kParallel,
                           "vm" + std::to_string(i), vcpus_per_vm);
    }
    virt::Node& node = platform_->node(virt::NodeId{0});
    for (std::size_t i = 0; i < node.vms().size(); ++i) {
      for (auto& v : node.vms()[i]->vcpus()) {
        v.sched().rq.vm = static_cast<std::int32_t>(i);
        v.sched().credits = rng_.uniform(-200.0, 200.0);
        vcpus_.push_back(&v);
        cls_.push_back(random_class());
      }
    }
    queues_ = pcpus;
    vms_ = node.vms().size();
    indexed_.init(static_cast<std::size_t>(queues_), vms_);
    linear_.init(static_cast<std::size_t>(queues_), vms_);
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) {
      const double op = rng_.next_double();
      if (op < 0.40) {
        step_enqueue();
      } else if (op < 0.60) {
        step_remove();
      } else if (op < 0.85) {
        step_pop();
      } else if (op < 0.95) {
        step_check();
      } else {
        step_refill();
      }
    }
    drain();
  }

 private:
  static constexpr double kDeadBand = 30.0;

  CreditPrio random_class() {
    // Weighted like real runs: mostly UNDER/OVER, occasional BOOST/PARKED.
    const double r = rng_.next_double();
    if (r < 0.15) return CreditPrio::kBoost;
    if (r < 0.60) return CreditPrio::kUnder;
    if (r < 0.95) return CreditPrio::kOver;
    return CreditPrio::kParked;
  }

  // The class a linear-structure scan must see for each element: the side
  // array, fixed while the VCPU is queued (rebucket updates it in place).
  CreditPrio cls_of(const Vcpu& v) const {
    return cls_[index_of(v)];
  }
  std::size_t index_of(const Vcpu& v) const {
    for (std::size_t i = 0; i < vcpus_.size(); ++i) {
      if (vcpus_[i] == &v) return i;
    }
    ADD_FAILURE() << "unknown vcpu";
    return 0;
  }

  bool queued(const Vcpu& v) const { return v.sched().rq.queue >= 0; }

  Vcpu* random_vcpu(bool want_queued) {
    std::vector<Vcpu*> pool;
    for (Vcpu* v : vcpus_) {
      if (queued(*v) == want_queued) pool.push_back(v);
    }
    if (pool.empty()) return nullptr;
    return pool[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }

  void step_enqueue() {
    Vcpu* v = random_vcpu(/*want_queued=*/false);
    if (v == nullptr) return;
    // Off-queue credit changes (charge/boost) happen before enqueue.
    v->sched().credits += rng_.uniform(-60.0, 60.0);
    const std::size_t i = index_of(*v);
    cls_[i] = random_class();
    const int q = static_cast<int>(rng_.uniform_int(0, queues_ - 1));
    indexed_.insert(*v, q, cls_[i], kDeadBand);
    linear_.insert(*v, q, cls_[i], kDeadBand,
                   [this](const Vcpu& w) { return cls_of(w); });
    EXPECT_TRUE(indexed_.contains(*v));
  }

  void step_remove() {
    Vcpu* v = random_vcpu(/*want_queued=*/true);
    if (v == nullptr) {
      // Removing an unqueued VCPU must be a no-op in both structures.
      v = random_vcpu(/*want_queued=*/false);
      if (v == nullptr) return;
      EXPECT_FALSE(indexed_.erase(*v));
      EXPECT_FALSE(linear_.erase(*v));
      return;
    }
    EXPECT_TRUE(indexed_.erase(*v));
    EXPECT_TRUE(linear_.erase(*v));
  }

  void step_pop() {
    const int q = static_cast<int>(rng_.uniform_int(0, queues_ - 1));
    Vcpu* fi = indexed_.front(q);
    Vcpu* fl = linear_.front(q);
    ASSERT_EQ(fi, fl) << "front mismatch on queue " << q;
    if (fi == nullptr) return;
    ASSERT_EQ(indexed_.pop_front(q), linear_.pop_front(q));
  }

  void step_check() {
    for (int q = 0; q < queues_; ++q) {
      ASSERT_EQ(indexed_.depth(q), linear_.depth(q));
      ASSERT_EQ(indexed_.front(q), linear_.front(q));
      for (std::size_t vm = 0; vm < vms_; ++vm) {
        ASSERT_EQ(indexed_.queued_of_vm(q, static_cast<int>(vm)),
                  linear_.queued_of_vm(q, static_cast<int>(vm)))
            << "sibling count mismatch: queue " << q << " vm " << vm;
      }
    }
  }

  // Credit refill: mutate every VCPU's credits (queued or not), reassign
  // classes, then rebucket both structures — the only point where a queued
  // VCPU's class may change, as in CreditScheduler::refill_credits.
  void step_refill() {
    for (std::size_t i = 0; i < vcpus_.size(); ++i) {
      vcpus_[i]->sched().credits += rng_.uniform(-100.0, 100.0);
      cls_[i] = random_class();
    }
    auto prio = [this](Vcpu& v) { return cls_of(v); };
    indexed_.rebucket(prio);
    linear_.rebucket(prio);
    step_check();
  }

  void drain() {
    for (int q = 0; q < queues_; ++q) {
      while (indexed_.front(q) != nullptr || linear_.front(q) != nullptr) {
        Vcpu* fi = indexed_.front(q);
        Vcpu* fl = linear_.front(q);
        ASSERT_EQ(fi, fl) << "drain order mismatch on queue " << q;
        ASSERT_EQ(indexed_.pop_front(q), linear_.pop_front(q));
      }
      ASSERT_EQ(indexed_.depth(q), 0u);
      ASSERT_EQ(linear_.depth(q), 0u);
    }
  }

  sim::Simulation sim_;
  std::unique_ptr<virt::Platform> platform_;
  sim::Rng rng_;
  std::vector<Vcpu*> vcpus_;
  std::vector<CreditPrio> cls_;  ///< insertion class per vcpus_[i]
  int queues_ = 0;
  std::size_t vms_ = 0;
  sched::IndexedRunQueues indexed_;
  sched::LinearRunQueues linear_;
};

TEST(RunQueueDifferentialTest, SmallTopologyManySeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunQueueDifferential diff(/*pcpus=*/2, /*guest_vms=*/2,
                              /*vcpus_per_vm=*/2, seed);
    diff.run(2000);
  }
}

TEST(RunQueueDifferentialTest, WideTopology) {
  for (std::uint64_t seed = 100; seed <= 105; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunQueueDifferential diff(/*pcpus=*/8, /*guest_vms=*/6,
                              /*vcpus_per_vm=*/4, seed);
    diff.run(4000);
  }
}

TEST(RunQueueDifferentialTest, SingleQueueDeepContention) {
  RunQueueDifferential diff(/*pcpus=*/1, /*guest_vms=*/4,
                            /*vcpus_per_vm=*/8, /*seed=*/7);
  diff.run(6000);
}

// The dead band itself: elements inside the band keep FIFO order, elements
// beyond it are credit-ordered — pinned directly rather than statistically.
TEST(RunQueueOrderingTest, DeadBandKeepsFifoWithinBand) {
  sim::Simulation sim;
  virt::PlatformConfig cfg;
  cfg.nodes = 1;
  cfg.pcpus_per_node = 1;
  virt::Platform platform(sim, cfg);
  virt::Vm& vm = platform.create_vm(virt::NodeId{0}, virt::VmType::kParallel,
                                    "vm", 4);
  for (auto& v : vm.vcpus()) v.sched().rq.vm = 0;

  sched::IndexedRunQueues q;
  q.init(1, 2);

  // a: 100 credits, b: 80 (inside a's 30-credit band), c: 150 (beyond b's).
  Vcpu* a = &vm.vcpus()[0];
  Vcpu* b = &vm.vcpus()[1];
  Vcpu* c = &vm.vcpus()[2];
  a->sched().credits = 100.0;
  b->sched().credits = 80.0;
  c->sched().credits = 150.0;
  q.insert(*a, 0, CreditPrio::kUnder, 30.0);
  q.insert(*b, 0, CreditPrio::kUnder, 30.0);  // within band: stays behind a
  q.insert(*c, 0, CreditPrio::kUnder, 30.0);  // beyond band: ahead of both
  EXPECT_EQ(q.pop_front(0), c);
  EXPECT_EQ(q.pop_front(0), a);
  EXPECT_EQ(q.pop_front(0), b);

  // A wider band files c FIFO at the back instead.
  a->sched().rq.vm = b->sched().rq.vm = c->sched().rq.vm = 0;
  q.insert(*a, 0, CreditPrio::kUnder, 100.0);
  q.insert(*b, 0, CreditPrio::kUnder, 100.0);
  q.insert(*c, 0, CreditPrio::kUnder, 100.0);
  EXPECT_EQ(q.pop_front(0), a);
  EXPECT_EQ(q.pop_front(0), b);
  EXPECT_EQ(q.pop_front(0), c);
}

}  // namespace
}  // namespace atcsim
