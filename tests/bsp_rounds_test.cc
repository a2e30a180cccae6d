// BSP synchronization-round semantics: the intra-VM LHP rounds that give
// co-scheduling something to win (DESIGN.md decision 7).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "net/network.h"
#include "sched/credit.h"
#include "virt/platform.h"
#include "workload/bsp_app.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

struct Rig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::vector<std::unique_ptr<workload::BspApp>> apps;

  explicit Rig(int pcpus = 2, std::uint64_t seed = 51) {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = pcpus;
    pc.seed = seed;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
  }

  workload::BspApp& app(int vcpus, const workload::Descriptor& desc) {
    virt::Vm& vm = platform->create_vm(
        virt::NodeId{0}, virt::VmType::kParallel,
        "bsp" + std::to_string(platform->vm_count()), vcpus);
    apps.push_back(std::make_unique<workload::BspApp>(
        std::vector<virt::Vm*>{&vm}, desc, sim::Rng(9), nullptr, nullptr));
    apps.back()->attach();
    return *apps.back();
  }

  void run(sim::SimTime t) {
    platform->set_scheduler(virt::NodeId{0},
                            std::make_unique<sched::CreditScheduler>());
    platform->engine().start();
    simulation.run_until(t);
  }
};

// 4 ms of compute per superstep split into `rounds` equal segments: the
// first rounds - 1 end at intra-VM local barriers, the last at the global
// barrier.
workload::Descriptor with_rounds(int rounds, double jitter = 0.0,
                                 int steps_per_iter = 20) {
  const std::string segment = "phase compute " +
                              std::to_string(4_ms / rounds) + " jitter=" +
                              std::to_string(jitter) + "\n";
  std::string text = "workload bsp\nsteps_per_iter " +
                     std::to_string(steps_per_iter) + "\n";
  for (int r = 0; r < rounds; ++r) {
    if (r > 0) text += "phase local_barrier\n";
    text += segment;
  }
  return workload::Descriptor::parse(text + "phase barrier 64KiB\n");
}

TEST(BspRoundsTest, UncontendedRoundsAreFree) {
  // With a dedicated PCPU per rank, extra intra-VM rounds add only the
  // (zero-latency) barrier bookkeeping: superstep rate is unchanged.
  auto steps = [](int rounds) {
    Rig rig(2);
    auto& app = rig.app(2, with_rounds(rounds));
    rig.run(2_s);
    return app.supersteps_completed();
  };
  const auto one = steps(1);
  const auto four = steps(4);
  EXPECT_NEAR(static_cast<double>(four) / static_cast<double>(one), 1.0,
              0.06);
}

TEST(BspRoundsTest, ContendedRoundsMultiplySuperstepCost) {
  // Three 2-VCPU spinning apps share 2 PCPUs (3:1 overcommit, so sibling
  // co-residency is rare): every additional sync round costs roughly one
  // more scheduling rotation per superstep.
  auto steps = [](int rounds) {
    Rig rig(2);
    auto& a = rig.app(2, with_rounds(rounds));
    rig.app(2, with_rounds(rounds));
    rig.app(2, with_rounds(rounds));
    rig.run(12_s);
    return a.supersteps_completed();
  };
  const auto one = steps(1);
  const auto four = steps(4);
  EXPECT_GT(one, 2 * four);
}

TEST(BspRoundsTest, SuperstepCountsMatchAcrossClusterVms) {
  Rig rig(2);
  auto& app = rig.app(2, with_rounds(3, 0.0, /*steps_per_iter=*/4));
  rig.run(1_s);
  EXPECT_GT(app.supersteps_completed(), 10u);
  // Every rank observed every generation: total spin episodes per VM equal
  // ranks x rounds x supersteps (within the in-flight margin of 1).
  const virt::Vm& vm = *app.vms()[0];
  const std::uint64_t expected =
      vm.vcpu_count() * 3 * app.supersteps_completed();
  EXPECT_NEAR(static_cast<double>(vm.totals().spin_episodes),
              static_cast<double>(expected),
              static_cast<double>(vm.vcpu_count() * 3));
}

TEST(BspRoundsTest, DeterministicAcrossRuns) {
  auto fingerprint = [] {
    Rig rig(2, 77);
    auto& app = rig.app(4, with_rounds(2));
    rig.run(1_s);
    return app.supersteps_completed();
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(BspRoundsTest, RejectsOutOfRangeSyncRounds) {
  // A superstep holds at most 32 sync rounds: 31 local barriers before the
  // global one.  BspApp rejects a program with more.
  Rig rig(2);
  virt::Vm& vm = rig.platform->create_vm(virt::NodeId{0},
                                         virt::VmType::kParallel, "bsp-v", 2);
  const std::vector<virt::Vm*> vms{&vm};
  workload::Phase local;
  local.kind = workload::PhaseKind::kLocalBarrier;
  for (int locals : {32, 40}) {
    workload::Descriptor d = with_rounds(1);
    d.phases.insert(d.phases.begin() + 1, static_cast<std::size_t>(locals),
                    local);
    EXPECT_THROW(workload::BspApp(vms, d, sim::Rng(9), nullptr, nullptr),
                 std::invalid_argument)
        << locals << " local barriers should be rejected";
  }
  // Zero rounds: a global barrier with no compute segment before it.
  workload::Descriptor bare = with_rounds(1);
  bare.phases.erase(bare.phases.begin());
  EXPECT_THROW(workload::BspApp(vms, bare, sim::Rng(9), nullptr, nullptr),
               std::invalid_argument);
  // Boundaries of the documented [1, 32] range are accepted.
  EXPECT_NO_THROW(
      workload::BspApp(vms, with_rounds(1), sim::Rng(9), nullptr, nullptr));
  EXPECT_NO_THROW(
      workload::BspApp(vms, with_rounds(32), sim::Rng(9), nullptr, nullptr));
}

TEST(BspRoundsTest, JitterSpreadsArrivals) {
  // With jitter, the non-laggard ranks accumulate nonzero spin wall time
  // even on an uncontended host.
  Rig rig(4);
  auto& app = rig.app(4, with_rounds(1, /*jitter=*/0.2));
  rig.run(2_s);
  EXPECT_GT(app.vms()[0]->totals().spin_wall, 0);
}

}  // namespace
}  // namespace atcsim
