// Cluster control plane tests (DESIGN.md §12): the live-migration
// primitive end-to-end, the contention-aware rebalancer policy, and the
// two lifetime regressions fixed alongside it — install_approach's monitor
// subscriptions are RAII tokens now, and the Xenoprof sampler's timer is
// cancellable — both of which fail loudly on the pre-fix code.
#include <gtest/gtest.h>

#include <memory>

#include "cache/xenoprof.h"
#include "cluster/approach.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"
#include "workload/apps.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

// ------------------------------------------------------------- migration

TEST(MigrationTest, ScriptedMoveRelocatesVmAndPreservesProgress) {
  auto sp = ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(4)
                .vms_per_node(4)
                .vcpus_per_vm(2)
                .approach(Approach::kCR)
                .seed(11)
                .check_invariants()
                .build();
  Scenario& s = *sp;
  // A loop guest with a pending think timer at the decision instant: the
  // timer must travel in the bundle and re-arm on the destination engine.
  const workload::Descriptor desc = workload::Descriptor::parse(
      "workload svc\nrate_units 4\nphase compute 400us jitter=0.1\n"
      "phase think 600us\n");
  virt::Vm& mover = s.add_loop_vm(0, desc, "svc");
  const std::int64_t gid = mover.global_id();
  ASSERT_GE(gid, 0);
  s.start();
  s.schedule_migration(mover, 300_ms, /*dest_node=*/1);
  s.run_for(700_ms);

  EXPECT_EQ(s.migrator().migrations_started(), 1u);
  EXPECT_EQ(s.migrator().migrations_adopted(), 1u);
  const virt::VmLocation& loc = s.directory().at(gid);
  EXPECT_EQ(loc.node_global, 1);
  EXPECT_LE(loc.moving_until, s.simulation().now());
  EXPECT_EQ(&mover.node(), s.platform().nodes()[1].get());

  // The guest must keep completing loop iterations after the move: credits,
  // mailbox and workload timers all travelled in the bundle — and the
  // checker's migration-residency/migration-credits invariants held.
  s.metrics().reset_all();
  s.run_for(400_ms);
  double units = 0.0;
  for (const auto& [key, rate] : s.metrics().all_rates()) units += rate.units();
  EXPECT_GT(units, 0.0);
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_TRUE(s.invariants()->violations().empty());
}

TEST(MigrationTest, GuardsRefuseDom0AndInTransitVms) {
  auto sp = ScenarioBuilder{}.nodes(2).approach(Approach::kCR).seed(5).build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  const std::int64_t gid = vm.global_id();
  s.start();
  s.run_for(50_ms);

  EXPECT_FALSE(s.migrator().can_migrate(*s.platform().nodes()[0]->dom0()));
  ASSERT_TRUE(s.migrator().can_migrate(vm));

  const sim::SimTime t_r = s.migrator().migrate(vm, /*dest_node_global=*/1);
  EXPECT_GT(t_r, s.simulation().now());
  // In transit now: a second move must be refused until t_r passes.
  EXPECT_FALSE(s.migrator().can_migrate(vm));

  s.run_for(t_r - s.simulation().now() + 50_ms);
  EXPECT_TRUE(s.migrator().can_migrate(vm));
  EXPECT_EQ(s.directory().at(gid).node_global, 1);
}

TEST(MigrationTest, ScheduledMoveIsNoOpWhenAlreadyInTransitOrArrived) {
  auto sp = ScenarioBuilder{}.nodes(2).approach(Approach::kCR).seed(6).build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  s.start();
  // The copy window of the default 32 MiB working set runs ~300 ms, so the
  // 150 ms order lands mid-transit (refused) and the 800 ms one finds the
  // VM already at its destination (refused).
  s.schedule_migration(vm, 100_ms, /*dest_node=*/1);
  s.schedule_migration(vm, 150_ms, /*dest_node=*/1);
  s.schedule_migration(vm, 800_ms, /*dest_node=*/1);
  s.run_for(1_s);
  EXPECT_EQ(s.migrator().migrations_started(), 1u);
  EXPECT_EQ(s.migrator().migrations_adopted(), 1u);
}

TEST(MigrationTest, RoundTripsDoNotGrowTheEventSlab) {
  // Segment timers belong to the PCPUs, so an arriving VM needs no timer
  // slots of its own.  When each VCPU owned one, adopt_and_resume made a
  // fresh slot per VCPU on every arrival and the source's stayed orphaned:
  // ten moves of an 8-VCPU VM grew the slab by 68 slots past the first.
  auto sp = ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(8)
                .vcpus_per_vm(8)
                .approach(Approach::kCR)
                .seed(9)
                .build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  ASSERT_EQ(vm.vcpu_count(), 8u);
  const std::int64_t gid = vm.global_id();
  s.start();
  s.run_for(20_ms);

  std::size_t after_first = 0;
  for (int move = 0; move < 10; ++move) {
    const std::int32_t dest = (move + 1) % 2;
    ASSERT_TRUE(s.migrator().can_migrate(vm)) << "move " << move;
    const sim::SimTime t_r = s.migrator().migrate(vm, dest);
    s.run_for(t_r - s.simulation().now() + 20_ms);
    ASSERT_EQ(s.directory().at(gid).node_global, dest) << "move " << move;
    if (move == 0) after_first = s.simulation().queue().slot_count();
  }
  EXPECT_EQ(s.migrator().migrations_adopted(), 10u);
  EXPECT_LE(s.simulation().queue().slot_count(), after_first + 4)
      << "event slots grew with every migration";
}

// ------------------------------------------------------------ rebalancer

TEST(RebalancerTest, MovesBusiestGuestOffTheHotHost) {
  // Four cache-hungry guests fight over node 0's two PCPUs while node 1
  // sits idle: the pressure gap is maximal, so kPM must migrate at least
  // one guest across, and the gap must narrow.
  auto sp = ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(2)
                .vms_per_node(4)
                .vcpus_per_vm(1)
                .approach(Approach::kPM)
                .seed(21)
                .build();
  Scenario& s = *sp;
  std::vector<std::int64_t> gids;
  for (int i = 0; i < 4; ++i) {
    virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("stream"),
                                 "stream" + std::to_string(i));
    gids.push_back(vm.global_id());
  }
  s.start();
  s.run_for(2_s);

  const cluster::ApproachRuntime& rt = s.approach_runtime();
  ASSERT_NE(rt.sampler, nullptr);
  ASSERT_NE(rt.rebalancer, nullptr);
  EXPECT_GT(rt.rebalancer->periods_observed(), 10u);
  EXPECT_GE(rt.rebalancer->migrations_ordered(), 1u);
  EXPECT_EQ(s.migrator().migrations_started(),
            rt.rebalancer->migrations_ordered());

  int on_cold = 0;
  for (std::int64_t gid : gids) {
    on_cold += s.directory().at(gid).node_global == 1;
  }
  // Load spread, but hysteresis kept some guests home: the controller
  // stopped once the gap fell under the margin instead of thrashing the
  // whole population back and forth (~66 periods would allow ~16 moves).
  EXPECT_GE(on_cold, 1);
  EXPECT_LE(on_cold, 3);
  EXPECT_LE(rt.rebalancer->migrations_ordered(), 4u);
}

// --------------------------------------------- observer-lifetime regression

TEST(ApproachLifetimeTest, DestroyingARuntimeUnsubscribesItsCallbacks) {
  // Pre-fix, install_approach registered raw subscriber pointers with the
  // monitor; destroying the runtime (a re-install) left them dangling and
  // the next period fired into freed controllers.  The RAII subscriptions
  // must drop the count back to zero.
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 2;
  pc.seed = 5;
  virt::Platform platform(simulation, pc);
  sync::PeriodMonitor monitor(platform);
  EXPECT_EQ(monitor.subscriber_count(), 0u);
  {
    cluster::ApproachRuntime rt =
        cluster::install_approach(platform, monitor, Approach::kCS);
    EXPECT_GT(monitor.subscriber_count(), 0u);
  }
  EXPECT_EQ(monitor.subscriber_count(), 0u);

  // Re-install a different approach and let periods fire: with the old
  // callbacks detached this runs clean; pre-fix it was a use-after-free.
  cluster::ApproachRuntime rt =
      cluster::install_approach(platform, monitor, Approach::kDSS);
  EXPECT_GT(monitor.subscriber_count(), 0u);
  monitor.start();
  platform.engine().start();
  simulation.run_until(200_ms);
  EXPECT_GT(monitor.periods_elapsed(), 0u);
}

// ------------------------------------------------ sampler-timer regression

TEST(SamplerLifetimeTest, DestroyBeforeSimulationDisarmsTheTimer) {
  // Pre-fix, the sampler re-armed an un-cancellable event forever: a
  // destroyed sampler's next firing was a use-after-free, and the pending
  // re-arm pinned next_event_time so a drained shard never looked idle.
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  pc.seed = 3;
  virt::Platform platform(simulation, pc);
  {
    cache::XenoprofSampler sampler(platform, 10_ms);
    sampler.start();
    simulation.run_until(35_ms);
    EXPECT_GE(sampler.samples().size(), 3u);
  }
  simulation.run_until(100_ms);  // pre-fix: fired into the dead sampler
  EXPECT_EQ(simulation.next_event_time(), sim::kTimeNever);
}

// ------------------------------------------------ node-pressure cache

TEST(XenoprofPressureTest, CachedPressureMatchesNaiveWalkThroughChurnAndDecay) {
  // node_pressure() answers from per-node running sums instead of re-walking
  // every resident VM; the sums must stay bit-for-bit equal to the naive
  // walk through every way the inputs move: EWMA windows advancing, VM
  // arrival (create and adopt), departure (expel), and pure decay.  The
  // churn happens *between* sampling instants on purpose, so the
  // topology_version invalidation path is what keeps the cache honest.
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 2;
  pc.pcpus_per_node = 2;
  pc.seed = 3;
  virt::Platform platform(simulation, pc);
  virt::Vm& a = platform.create_vm(virt::NodeId{0}, virt::VmType::kNonParallel,
                                   "a", 1);
  virt::Vm& b = platform.create_vm(virt::NodeId{0}, virt::VmType::kNonParallel,
                                   "b", 1);
  virt::Vm& c =
      platform.create_vm(virt::NodeId{1}, virt::VmType::kParallel, "c", 1);
  cache::XenoprofSampler sampler(platform, 10_ms);
  sampler.start();

  const auto naive = [&](virt::Node& node) {
    double p = 0.0;
    for (const auto& vm : node.vms()) {
      if (vm == nullptr || vm->is_dom0()) continue;
      p += sampler.vm_miss_rate(*vm);
    }
    return p / static_cast<double>(node.llc_domains());
  };
  const auto expect_cached_equals_naive = [&](const char* what) {
    for (const auto& node : platform.nodes()) {
      EXPECT_EQ(sampler.node_pressure(*node), naive(*node))
          << what << " (node " << node->index() << ")";
    }
  };

  // Before any sample fired: all rates zero, but the query already takes
  // the lazy-rebuild path.
  expect_cached_equals_naive("before first sample");

  // Three sampling windows with distinct per-VM miss deltas (the first
  // sample only primes the windows; rates are nonzero from the second).
  for (int w = 0; w < 3; ++w) {
    a.totals().llc_misses += 9000 + 1000 * static_cast<std::uint64_t>(w);
    b.totals().llc_misses += 4000;
    c.totals().llc_misses += 2500;
    simulation.run_until((w + 1) * 10_ms + 1_ms);
    expect_cached_equals_naive("steady window");
  }
  ASSERT_GT(sampler.node_pressure(*platform.nodes()[0]), 0.0)
      << "no pressure accumulated; the comparisons above were vacuous";

  // Arrival between samples: a freshly created VM (rate 0 until seen).
  platform.create_vm(virt::NodeId{1}, virt::VmType::kNonParallel, "d", 1);
  expect_cached_equals_naive("after create");

  // Departure between samples, then adoption onto the other node — the
  // same topology operations a live migration performs.
  std::unique_ptr<virt::Vm> owned = platform.expel_vm(b);
  expect_cached_equals_naive("after expel");
  platform.adopt_vm(virt::NodeId{1}, std::move(owned));
  expect_cached_equals_naive("after adopt");

  // Pure decay: no further misses, so every EWMA rate halves per window.
  const double before = sampler.node_pressure(*platform.nodes()[0]);
  simulation.run_until(80_ms);
  expect_cached_equals_naive("after decay");
  EXPECT_LT(sampler.node_pressure(*platform.nodes()[0]), before);
}

}  // namespace
}  // namespace atcsim
