// Engine tests: VCPU execution, slices, spin/block waits, SyncEvent waiter
// lists, mailboxes, context-switch and cache-debt accounting.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sched/credit.h"
#include "virt/engine.h"
#include "virt/platform.h"
#include "virt/sync_event.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using virt::Action;
using virt::Vcpu;
using virt::VcpuState;
using virt::VmType;

// Scripted workload: replays a fixed list of actions, then exits.
class ScriptWorkload : public virt::Workload {
 public:
  explicit ScriptWorkload(std::vector<Action> script, double sens = 1.0)
      : script_(std::move(script)), sens_(sens) {}

  Action next(Vcpu& /*self*/) override {
    on_step_.push_back(step_);
    if (step_ >= script_.size()) return Action::exit();
    return script_[step_++];
  }
  double cache_sensitivity() const override { return sens_; }
  std::string name() const override { return "script"; }

  std::size_t steps_taken() const { return step_; }
  const std::vector<std::size_t>& trace() const { return on_step_; }

 private:
  std::vector<Action> script_;
  double sens_;
  std::size_t step_ = 0;
  std::vector<std::size_t> on_step_;
};

struct Rig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;

  explicit Rig(int pcpus = 1, int nodes = 1, virt::ModelParams params = {}) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = pcpus;
    pc.params = params;
    pc.seed = 99;
    platform = std::make_unique<virt::Platform>(simulation, pc);
  }

  virt::Vm& vm(int node, int vcpus, VmType type = VmType::kParallel) {
    return platform->create_vm(virt::NodeId{node}, type,
                               "vm" + std::to_string(platform->vm_count()),
                               vcpus);
  }

  void start() {
    for (auto& node : platform->nodes()) {
      if (!node->has_scheduler()) {
        platform->set_scheduler(node->id(),
                                std::make_unique<sched::CreditScheduler>());
      }
    }
    platform->engine().start();
  }
};

// No-jitter params so timing asserts are exact.
virt::ModelParams exact_params() {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 0;
  return p;
}

TEST(EngineTest, ComputeRunsToCompletionAndExits) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(5_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(vm.totals().run_time, 5_ms);
}

TEST(EngineTest, ComputeLongerThanSliceSplitsAcrossSlices) {
  Rig rig(1, 1, exact_params());
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(50_ms)});
  ScriptWorkload wb({Action::compute(50_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(10_s);
  // Both complete; with 30ms default slices each ran in 2 stints.
  EXPECT_EQ(a.totals().run_time, 50_ms);
  EXPECT_EQ(b.totals().run_time, 50_ms);
  EXPECT_GE(a.vcpus()[0].totals().dispatches, 2u);
}

TEST(EngineTest, VcpuWithoutWorkloadNeverRuns) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  ScriptWorkload w({Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[1].state(), VcpuState::kDone);
  EXPECT_EQ(vm.vcpus()[1].totals().dispatches, 0u);
}

TEST(EngineTest, SpinWaitBurnsCpuUntilSignal) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ScriptWorkload w({Action::spin_wait(ev), Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.call_at(7_ms, [&] { ev.signal(); });
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.totals().spin_cpu, 7_ms);       // on-CPU spin time
  EXPECT_EQ(vm.totals().spin_wall, 7_ms);      // wall episode latency
  EXPECT_EQ(vm.totals().spin_episodes, 1u);
  EXPECT_EQ(vm.totals().run_time, 8_ms);       // spin + compute
}

TEST(EngineTest, SpinOnSignalledEventIsZeroLatencyEpisode) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ev.signal();
  ScriptWorkload w({Action::spin_wait(ev)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.totals().spin_episodes, 1u);
  EXPECT_EQ(vm.totals().spin_wall, 0);
}

TEST(EngineTest, DescheduledSpinnerObservesSignalOnlyAtDispatch) {
  // Two VCPUs on one PCPU: the spinner is descheduled when its event fires,
  // so the episode's wall latency includes the wait for its next slice —
  // the Fig. 3 behaviour.
  Rig rig(1, 1, exact_params());
  virt::Vm& spin_vm = rig.vm(0, 1);
  virt::Vm& hog_vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ScriptWorkload spinner({Action::spin_wait(ev)});
  ScriptWorkload hog({Action::compute(300_ms)});
  spin_vm.vcpus()[0].set_workload(&spinner);
  hog_vm.vcpus()[0].set_workload(&hog);
  rig.start();
  // Fire while the hog holds the PCPU (spinner descheduled).
  rig.simulation.call_at(35_ms, [&] { ev.signal(); });
  rig.simulation.run_until(2_s);
  EXPECT_EQ(spin_vm.totals().spin_episodes, 1u);
  // Episode ends at the spinner's next dispatch, i.e. strictly after 35ms.
  EXPECT_GT(spin_vm.totals().spin_wall, 35_ms);
}

TEST(EngineTest, BlockWaitHaltsAndWakes) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ScriptWorkload w({Action::block_wait(ev), Action::compute(2_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(5_ms);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  ev.signal();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  // Blocked time is not CPU time.
  EXPECT_EQ(vm.totals().run_time, 2_ms);
  EXPECT_EQ(vm.totals().spin_cpu, 0);
}

TEST(EngineTest, BlockWakeCountsAsWakeup) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ScriptWorkload w({Action::block_wait(ev)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.call_at(1_ms, [&] { ev.signal(); });
  rig.simulation.run_until(1_s);
  // No monitor resets the period accumulator in this rig.
  EXPECT_EQ(vm.period().wakeups, 1u);
}

TEST(EngineTest, DepositToRunningVmIsImmediate) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(100_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  bool delivered = false;
  sim::SimTime at = -1;
  rig.simulation.call_at(3_ms, [&] {
    rig.platform->engine().deposit(vm, [&] {
      delivered = true;
      at = rig.simulation.now();
    });
  });
  rig.simulation.run_until(10_ms);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, 3_ms);  // IRQ into a running guest: handled immediately
}

TEST(EngineTest, DepositToBlockedVmWakesAndDrainsOnDispatch) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent never(rig.platform->engine());
  ScriptWorkload w({Action::block_wait(never)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(5_ms);
  ASSERT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  bool delivered = false;
  rig.platform->engine().deposit(vm, [&] { delivered = true; });
  rig.simulation.run_until(10_ms);
  EXPECT_TRUE(delivered);  // woken by the event-channel IRQ, mail drained
  // The VCPU re-blocked afterwards (its event never fires).
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
}

TEST(EngineTest, DepositToDescheduledVmWaitsForDispatch) {
  // VM is runnable (spinning) but off-CPU behind a hog: mail is processed
  // only once the VM gets scheduled again — overhead source 4 of Fig. 4.
  Rig rig(1, 1, exact_params());
  virt::Vm& spin_vm = rig.vm(0, 1);
  virt::Vm& hog_vm = rig.vm(0, 1);
  virt::SyncEvent never(rig.platform->engine());
  ScriptWorkload spinner({Action::spin_wait(never)});
  ScriptWorkload hog({Action::compute(300_ms)});
  spin_vm.vcpus()[0].set_workload(&spinner);
  hog_vm.vcpus()[0].set_workload(&hog);
  rig.start();
  sim::SimTime delivered_at = -1;
  rig.simulation.call_at(35_ms, [&] {
    // At t=35ms the hog occupies the PCPU (its slice started at 30ms).
    if (!spin_vm.any_running()) {
      rig.platform->engine().deposit(
          spin_vm, [&] { delivered_at = rig.simulation.now(); });
    } else {
      GTEST_SKIP() << "unexpected schedule; spinner running";
    }
  });
  rig.simulation.run_until(2_s);
  EXPECT_GT(delivered_at, 35_ms);
}

TEST(EngineTest, ContextSwitchChargesDebtAndMisses) {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 10_us;
  p.cache_refill_penalty = 100_us;
  p.cache_warm_ratio = 1.0;
  p.llc_misses_per_refill = 1000;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(100_ms)});
  ScriptWorkload wb({Action::compute(100_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(5_s);
  // Alternating 30ms slices: several switches each, each charging misses.
  EXPECT_GT(a.totals().ctx_switches, 1u);
  EXPECT_GT(a.totals().llc_misses, 0u);
  // Wall completion is later than pure compute due to debt.
  EXPECT_EQ(a.totals().run_time + b.totals().run_time,
            rig.platform->node(virt::NodeId{0}).pcpus()[0]->totals().busy);
}

TEST(EngineTest, FirstDispatchHasNoRefillDebt) {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 10_ms;  // huge: would be visible
  p.cache_warm_ratio = 1.0;
  Rig rig(1, 1, p);
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(5_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  // last_stint was 0 at first dispatch, so no refill debt was charged.
  EXPECT_EQ(vm.totals().run_time, 5_ms);
}

TEST(EngineTest, CacheDebtBoundedByLastStint) {
  // With 100us slices and a 10ms nominal refill, the charged debt per
  // dispatch is capped at warm_ratio * last_stint, so compute still
  // progresses (no livelock).
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 10_ms;
  p.cache_warm_ratio = 0.5;
  p.default_time_slice = 100_us;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(20_ms)});
  ScriptWorkload wb({Action::compute(20_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(30_s);
  EXPECT_EQ(a.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(b.vcpus()[0].state(), VcpuState::kDone);
}

TEST(EngineTest, MinTimeSliceClampsTinySlices) {
  virt::ModelParams p = exact_params();
  p.min_time_slice = 50_us;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  a.set_time_slice(1);  // 1 ns, clamped to 50us
  b.set_time_slice(1);
  ScriptWorkload wa({Action::compute(1_ms)});
  ScriptWorkload wb({Action::compute(1_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(1_s);
  // 2ms of work in 50us slices: at most ~40 dispatches each (plus noise),
  // far fewer than the millions 1ns slices would give.
  EXPECT_LE(a.vcpus()[0].totals().dispatches, 50u);
}

TEST(EngineTest, PcpuBusyMatchesVcpuRunTotals) {
  Rig rig(2, 1, exact_params());
  std::vector<std::unique_ptr<ScriptWorkload>> scripts;
  for (int i = 0; i < 4; ++i) {
    virt::Vm& vm = rig.vm(0, 1);
    scripts.push_back(std::make_unique<ScriptWorkload>(
        std::vector<Action>{Action::compute(40_ms)}));
    vm.vcpus()[0].set_workload(scripts.back().get());
  }
  rig.start();
  rig.simulation.run_until(5_s);
  sim::SimTime busy = 0;
  for (auto& p : rig.platform->node(virt::NodeId{0}).pcpus()) {
    busy += p->totals().busy;
  }
  EXPECT_EQ(busy, 4 * 40_ms);
}

TEST(EngineTest, RequestReschedHonorsRatelimit) {
  virt::ModelParams p = exact_params();
  p.preempt_min_run = 1_ms;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(20_ms)});
  ScriptWorkload wb({Action::compute(20_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  // Preempt immediately after the first dispatch: must be deferred to 1ms.
  virt::Pcpu& pcpu = *rig.platform->node(virt::NodeId{0}).pcpus()[0];
  rig.simulation.call_at(0, [&] {
    rig.platform->engine().request_resched(pcpu);
  });
  rig.simulation.run_until(500_us);
  // Current vcpu still running (ratelimit prevents a 0-run preemption).
  EXPECT_FALSE(pcpu.idle());
  sim::SimTime first_stint_end = 0;
  (void)first_stint_end;
  rig.simulation.run_until(2_s);
  EXPECT_EQ(a.totals().run_time + b.totals().run_time, 40_ms);
}

TEST(EngineTest, TwoIdenticalRunsAreDeterministic) {
  auto run_once = [] {
    Rig rig(2, 1);
    std::vector<std::unique_ptr<ScriptWorkload>> scripts;
    for (int i = 0; i < 6; ++i) {
      virt::Vm& vm = rig.vm(0, 1);
      scripts.push_back(std::make_unique<ScriptWorkload>(
          std::vector<Action>{Action::compute(17_ms),
                              Action::compute(9_ms)}));
      vm.vcpus()[0].set_workload(scripts.back().get());
    }
    rig.start();
    rig.simulation.run_until(3_s);
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < rig.platform->vm_count(); ++i) {
      out.push_back(rig.platform->vm(virt::VmId{static_cast<int>(i)})
                        .totals()
                        .ctx_switches);
    }
    out.push_back(rig.simulation.events_executed());
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SyncEventTest, SignalIsIdempotent) {
  Rig rig(1);
  virt::SyncEvent ev(rig.platform->engine());
  EXPECT_FALSE(ev.signalled());
  ev.signal();
  EXPECT_TRUE(ev.signalled());
  ev.signal();  // no effect, no crash
  EXPECT_TRUE(ev.signalled());
}

// Runs a script of actions; each next() call is logged with the VCPU's
// index, so the log shows the order in which waiters were released.
// `on_step` (optional) runs before the step's action is returned.
class LoggingWorkload : public virt::Workload {
 public:
  LoggingWorkload(std::vector<int>* log, std::vector<Action> script)
      : log_(log), script_(std::move(script)) {}

  Action next(Vcpu& self) override {
    log_->push_back(self.index_in_vm());
    if (on_step) on_step(step_);
    if (step_ >= script_.size()) return Action::exit();
    return script_[step_++];
  }
  std::string name() const override { return "logging"; }

  std::function<void(std::size_t)> on_step;

 private:
  std::vector<int>* log_;
  std::vector<Action> script_;
  std::size_t step_ = 0;
};

std::vector<int> waiter_indices(const virt::SyncEvent& ev) {
  std::vector<int> out;
  for (const Vcpu* v : ev.waiters()) out.push_back(v->index_in_vm());
  return out;
}

TEST(SyncEventTest, WakesWaitersInRegistrationOrder) {
  // Three spinners, each on its own PCPU, register in the order their
  // lead-in compute finishes (1, 2, 0) — neither VCPU index order nor its
  // reverse.  A running spinner proceeds inside signal(), so the order of
  // the next() calls it triggers is the wake order.
  Rig rig(3, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 3);
  virt::SyncEvent ev(rig.platform->engine());
  std::vector<int> log;
  const sim::SimTime lead[3] = {3_ms, 1_ms, 2_ms};
  std::vector<std::unique_ptr<LoggingWorkload>> ws;
  for (int i = 0; i < 3; ++i) {
    ws.push_back(std::make_unique<LoggingWorkload>(
        &log, std::vector<Action>{Action::compute(lead[i]),
                                  Action::spin_wait(ev),
                                  Action::compute(1_ms)}));
    vm.vcpus()[static_cast<std::size_t>(i)].set_workload(ws.back().get());
  }
  rig.start();
  rig.simulation.run_until(5_ms);
  for (const auto& v : vm.vcpus()) ASSERT_TRUE(v.running());
  EXPECT_EQ(waiter_indices(ev), (std::vector<int>{1, 2, 0}));

  log.clear();
  ev.signal();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(ev.waiters().empty());
  for (const auto& v : vm.vcpus()) {
    EXPECT_FALSE(v.eng().wait_registered);
    EXPECT_EQ(v.eng().next_waiter, nullptr);
  }
}

TEST(SyncEventTest, WaiterReRegisteringWhileWokenWaitsForNextSignal) {
  // VCPU 0 re-arms the event from inside its wake-up and spins on it again;
  // it must land in a fresh list, so the first signal still releases VCPU 1
  // exactly once and does not loop back to VCPU 0.
  Rig rig(2, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  virt::SyncEvent ev(rig.platform->engine());
  std::vector<int> log;
  LoggingWorkload w0(&log, {Action::spin_wait(ev), Action::spin_wait(ev),
                            Action::compute(1_ms)});
  LoggingWorkload w1(&log, {Action::compute(1_ms), Action::spin_wait(ev),
                            Action::compute(1_ms)});
  w0.on_step = [&](std::size_t step) {
    if (step == 1) ev.reset();  // woken from the first wait: re-arm
  };
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  rig.start();
  rig.simulation.run_until(5_ms);
  ASSERT_EQ(waiter_indices(ev), (std::vector<int>{0, 1}));

  log.clear();
  ev.signal();
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
  EXPECT_FALSE(ev.signalled());  // re-armed by VCPU 0
  EXPECT_EQ(waiter_indices(ev), (std::vector<int>{0}));
  EXPECT_TRUE(vm.vcpus()[0].eng().wait_registered);
  EXPECT_FALSE(vm.vcpus()[1].eng().wait_registered);

  log.clear();
  ev.signal();
  EXPECT_EQ(log, (std::vector<int>{0}));
  EXPECT_TRUE(ev.waiters().empty());
}

TEST(SyncEventTest, ResetAfterSignalLeavesEmptyList) {
  Rig rig(1);
  virt::Vm& vm = rig.vm(0, 3);
  virt::SyncEvent ev(rig.platform->engine());
  for (auto& v : vm.vcpus()) ev.add_waiter(v);
  EXPECT_EQ(waiter_indices(ev), (std::vector<int>{0, 1, 2}));
  ev.signal();
  EXPECT_TRUE(ev.waiters().empty());
  ev.reset();
  EXPECT_FALSE(ev.signalled());
  EXPECT_TRUE(ev.waiters().empty());
  // The VCPUs are free to wait again, in a new order.
  ev.add_waiter(vm.vcpus()[2]);
  ev.add_waiter(vm.vcpus()[0]);
  EXPECT_EQ(waiter_indices(ev), (std::vector<int>{2, 0}));
}

TEST(SyncEventTest, WaiterFreeEventMoves) {
  Rig rig(1);
  virt::SyncEvent ev(rig.platform->engine());
  ev.signal();
  virt::SyncEvent moved(std::move(ev));
  EXPECT_TRUE(moved.signalled());
  EXPECT_TRUE(moved.waiters().empty());
}

TEST(SyncEventDeathTest, SecondRegistrationWhileLinkedAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts are compiled out (NDEBUG)";
#else
  Rig rig(1);
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent a(rig.platform->engine());
  virt::SyncEvent b(rig.platform->engine());
  a.add_waiter(vm.vcpus()[0]);
  EXPECT_DEATH(a.add_waiter(vm.vcpus()[0]), "already on a waiter list");
  EXPECT_DEATH(b.add_waiter(vm.vcpus()[0]), "already on a waiter list");
#endif
}

TEST(SyncEventDeathTest, MovingEventWithWaitersAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts are compiled out (NDEBUG)";
#else
  Rig rig(1);
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(rig.platform->engine());
  ev.add_waiter(vm.vcpus()[0]);
  EXPECT_DEATH({ virt::SyncEvent moved(std::move(ev)); },
               "moving a SyncEvent with waiters");
#endif
}

TEST(VmTest, FirstBlockedAndAnyRunning) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  virt::SyncEvent never(rig.platform->engine());
  ScriptWorkload w0({Action::block_wait(never)});
  ScriptWorkload w1({Action::compute(50_ms)});
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  rig.start();
  rig.simulation.run_until(10_ms);
  EXPECT_EQ(vm.first_blocked(), &vm.vcpus()[0]);
  EXPECT_TRUE(vm.any_running());
}

}  // namespace
}  // namespace atcsim
