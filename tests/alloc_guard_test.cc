// Guards the event core's zero-allocation contract.
//
// A global operator-new hook counts heap allocations and sums the bytes they
// request; after a warm-up pass
// (slab slots, heap array and free list reach steady-state size), the
// schedule/pop loop, the cancel loop and the timer arm/fire loop must
// perform exactly zero allocations.  Runs as its own binary so the hook
// cannot interfere with the main test suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "net/network.h"
#include "sched/credit.h"
#include "simcore/event_queue.h"
#include "simcore/simulation.h"
#include "virt/engine.h"
#include "virt/platform.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

// noinline: once inlined, GCC sees a malloc paired with ::operator delete
// (or a new[] with delete) at call sites and raises
// -Wmismatched-new-delete; kept out of line the pairs stay opaque.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace atcsim::sim {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }

TEST(AllocGuardTest, SchedulePopSteadyStateIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  auto churn = [&] {
    SimTime t = 0;
    for (int batch = 0; batch < 200; ++batch) {
      for (int i = 0; i < 64; ++i) {
        q.schedule(t + (i * 7919) % 1000, [&sink] { ++sink; });
      }
      while (!q.empty()) q.pop().fn();
      t += 1000;
    }
  };
  churn();  // warm-up: grows slab + heap array to steady-state capacity
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "schedule/pop hot loop allocated after warm-up";
  EXPECT_GT(sink, 0u);
}

TEST(AllocGuardTest, CancelSteadyStateIsAllocationFree) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(64);
  SimTime t = 0;
  auto churn = [&] {
    for (int batch = 0; batch < 200; ++batch) {
      ids.clear();
      for (int i = 0; i < 64; ++i) ids.push_back(q.schedule(t + i, [] {}));
      for (auto id : ids) EXPECT_TRUE(q.cancel(id));
      (void)q.next_time();  // prune
      t += 64;
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "cancel hot loop allocated after warm-up";
}

TEST(AllocGuardTest, TimerRearmIsAllocationFree) {
  EventQueue q;
  std::uint64_t fired = 0;
  const TimerId timer = q.make_timer([&fired] { ++fired; });
  SimTime t = 0;
  auto churn = [&] {
    for (int i = 0; i < 10'000; ++i) {
      q.arm(timer, ++t);
      if (i % 3 == 0) {
        q.disarm(timer);  // cancel-heavy flavour: dead key, no firing
        (void)q.next_time();
      } else {
        q.pop().fn();
      }
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "timer arm/fire/disarm loop allocated after warm-up";
  EXPECT_GT(fired, 0u);
}

TEST(AllocGuardTest, SimulationLoopSteadyStateIsAllocationFree) {
  // Full Simulation::run_until loop with self-rescheduling timers — the
  // engine-shaped hot path end to end.
  Simulation s;
  struct Ctx {
    Simulation* s;
    std::uint64_t fired = 0;
    SimTime horizon = 0;
  } ctx{&s, 0, 0};
  std::vector<TimerId> timers;
  for (int i = 0; i < 16; ++i) {
    timers.push_back(s.make_timer([&ctx] { ++ctx.fired; }));
  }
  auto churn = [&] {
    ctx.horizon = s.now() + 200'000;
    SimTime t = s.now();
    while (s.now() < ctx.horizon) {
      for (auto timer : timers) s.arm_at(timer, t += 7);
      s.run_until(t);
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "Simulation run loop allocated after warm-up";
  EXPECT_GT(ctx.fired, 0u);
}

// dom0's netback service loop: enqueue -> wake (BOOST) -> compute -> apply
// effect -> idle-block, repeated.  After warm-up (job ring at capacity)
// the whole cycle — including the idle transition, which used to
// heap-allocate a fresh SyncEvent every time — must be allocation-free.
TEST(AllocGuardTest, Dom0IdleWakeSteadyStateIsAllocationFree) {
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  pc.dom0_vcpus = 1;
  atcsim::virt::Platform platform(s, pc);
  atcsim::net::VirtualNetwork net(platform);
  net.attach();
  platform.set_scheduler(atcsim::virt::NodeId{0},
                         std::make_unique<atcsim::sched::CreditScheduler>());
  platform.engine().start();

  std::uint64_t done = 0;
  auto churn = [&](int jobs) {
    for (int i = 0; i < jobs; ++i) {
      // One job, then let dom0 drain it and go idle again before the next
      // wake: every iteration crosses a full idle/wake transition.
      net.backend(0).enqueue({/*cpu_cost=*/10'000, [&done] { ++done; }});
      s.run_until(s.now() + 1'000'000);
    }
  };
  churn(64);
  const std::uint64_t before = allocs();
  churn(256);
  EXPECT_EQ(allocs() - before, 0u)
      << "dom0 idle/wake loop allocated after warm-up";
  EXPECT_EQ(done, 64u + 256u);
}

// Construction budget: building a type-A lu.B cluster must not cost a heap
// object per barrier event or per rank.  Barrier rings, arrival counters
// and ranks are flat per-app vectors and SyncEvent waiter lists are
// intrusive, so what remains is roughly the Vcpu objects themselves plus
// per-VM and per-node structures — about 2-3 allocations per VCPU, where a
// heap-object-per-event layout needs about 10.
TEST(AllocGuardTest, TypeAConstructionStaysWithinPerVcpuBudget) {
  const std::uint64_t before = allocs();
  auto s = atcsim::cluster::ScenarioBuilder{}
               .nodes(16)
               .approach(atcsim::cluster::Approach::kATC)
               .seed(7)
               .build();
  atcsim::cluster::build_type_a(*s, "lu", atcsim::workload::NpbClass::kB);
  s->start();
  const std::uint64_t made = allocs() - before;
  const std::size_t vcpus = s->platform().vcpu_count();
  ASSERT_GT(vcpus, 0u);
  RecordProperty("allocations", static_cast<int>(made));
  RecordProperty("vcpus", static_cast<int>(vcpus));
  const double per_vcpu =
      static_cast<double>(made) / static_cast<double>(vcpus);
  EXPECT_LE(per_vcpu, 4.0) << made << " allocations for " << vcpus
                           << " VCPUs";
}

// Bytes requested from operator new per VCPU for the same build, summed
// over build + populate + start (regrowth of vectors counts at every step).
// Printed by both byte-budget tests so a CI log shows the figure for its
// own toolchain.
double construction_bytes_per_vcpu(const char* test) {
  const std::uint64_t before = bytes();
  auto s = atcsim::cluster::ScenarioBuilder{}
               .nodes(16)
               .approach(atcsim::cluster::Approach::kATC)
               .seed(7)
               .build();
  atcsim::cluster::build_type_a(*s, "lu", atcsim::workload::NpbClass::kB);
  s->start();
  const std::uint64_t made = bytes() - before;
  const std::size_t vcpus = s->platform().vcpu_count();
  EXPECT_GT(vcpus, 0u);
  if (vcpus == 0) return 0.0;
  ::testing::Test::RecordProperty("bytes", static_cast<int>(made));
  ::testing::Test::RecordProperty("vcpus", static_cast<int>(vcpus));
  const double per_vcpu =
      static_cast<double>(made) / static_cast<double>(vcpus);
  std::printf("[ %s ] %llu bytes for %zu VCPUs = %.1f B/VCPU\n", test,
              static_cast<unsigned long long>(made), vcpus, per_vcpu);
  return per_vcpu;
}

// Memory budget: VCPUs live in one block per VM, segment timers are per
// PCPU and a rank keeps no inline wait events, which puts it near 1.5 KB; a
// timer slot per VCPU, two inline wait events per rank and a heap object
// per VCPU put it near 1.67 KB.  Measured with GCC 12.2 / libstdc++ 12
// (x86-64): 1503 B per VCPU with that layout, 1668 B with the older one.
// Byte counts follow the standard library's growth policy and object
// sizes, so a different toolchain may move them by a few percent; check
// the printed figure before reading a failure here as a regression.
TEST(AllocGuardTest, TypeAConstructionStaysWithinPerVcpuByteBudget) {
  const double per_vcpu = construction_bytes_per_vcpu("type-A build");
  EXPECT_LE(per_vcpu, 1580.0);
}

// Tighter budget for the same build: dom0 job rings are built by a node's
// first job rather than at construction, timers keep a 24-byte callable in
// a dense array instead of an 80-byte payload slot, and Engine::start
// sizes the queue for its timers once instead of doubling into them.
// Measured with GCC 12.2 / libstdc++ 12 (x86-64): 1170 B per VCPU now,
// 1503 B with rings and timer payloads built eagerly.
TEST(AllocGuardTest, TypeAConstructionStaysWithinLeanPerVcpuByteBudget) {
  const double per_vcpu = construction_bytes_per_vcpu("type-A build, lean");
  EXPECT_LE(per_vcpu, 1250.0);
}

}  // namespace
}  // namespace atcsim::sim
