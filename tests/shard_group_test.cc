// ShardGroup contract tests that need no model stack: the documented
// run_until non-decreasing-deadline rule, the worker-thread clamp, and the
// equivalence of the pooled and the inline round on bare executors.  The
// model-level determinism properties (merged traces across shard/thread
// counts, EOT on/off) live in pdes_invariance_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "simcore/shard.h"
#include "simcore/simulation.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

/// Executor over a bare Simulation: no fabric, no cross-shard traffic.  A
/// self-rescheduling tick keeps the event queue non-empty so run_until
/// always has rounds to run.
class TickExec final : public sim::ShardExecutor {
 public:
  TickExec(int id, sim::SimTime period) : id_(id), period_(period) { tick(); }
  int shard_id() const override { return id_; }
  sim::SimTime next_event_time() const override {
    return sim_.next_event_time();
  }
  void deliver_inbound(sim::SimTime /*watermark*/) override {}
  std::uint64_t advance_to(sim::SimTime horizon) override {
    return sim_.run_until(horizon);
  }
  std::uint64_t ticks = 0;

 private:
  void tick() {
    sim_.call_in(period_, [this] {
      ++ticks;
      tick();
    });
  }
  int id_;
  sim::SimTime period_;
  sim::Simulation sim_;
};

struct Rig {
  explicit Rig(sim::ShardGroup::Options opts) {
    for (int s = 0; s < 2; ++s) {
      execs.push_back(std::make_unique<TickExec>(s, 100_us));
    }
    group = std::make_unique<sim::ShardGroup>(
        std::vector<sim::ShardExecutor*>{execs[0].get(), execs[1].get()},
        opts);
  }
  std::vector<std::unique_ptr<TickExec>> execs;
  std::unique_ptr<sim::ShardGroup> group;
};

sim::ShardGroup::Options base_opts() {
  sim::ShardGroup::Options opts;
  opts.lookahead = 60_us;
  opts.threads = 1;
  return opts;
}

TEST(ShardGroupTest, RegressingDeadlineThrows) {
  Rig rig(base_opts());
  rig.group->run_until(10_ms);
  EXPECT_THROW(rig.group->run_until(5_ms), std::invalid_argument);
  // Equal deadlines are allowed (non-decreasing, as documented) and must be
  // a no-op: everything at or before 10 ms already ran.
  EXPECT_EQ(rig.group->run_until(10_ms), 0u);
  rig.group->run_until(12_ms);  // and the group still works afterwards
  EXPECT_GT(rig.execs[0]->ticks, 100u);
}

TEST(ShardGroupTest, ThreadCountIsClampedToShardCount) {
  auto opts = base_opts();
  opts.threads = 8;  // only 2 shards: extra workers could only idle
  Rig rig(opts);
  EXPECT_EQ(rig.group->thread_count(), 2u);
}

TEST(ShardGroupTest, WorkerPoolDoesNotChangeExecution) {
  // threads = 1 runs the round protocol inline; threads = 2 forks every
  // phase through the pool's spin-then-park barrier.  Both must execute
  // exactly the same events.
  std::uint64_t events[2] = {0, 0};
  std::uint64_t ticks[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    auto opts = base_opts();
    opts.threads = static_cast<std::size_t>(i + 1);
    Rig rig(opts);
    EXPECT_EQ(rig.group->thread_count(), opts.threads);
    events[i] = rig.group->run_until(25_ms);
    ticks[i] = rig.execs[0]->ticks + rig.execs[1]->ticks;
  }
  EXPECT_GT(events[0], 0u);
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(ticks[0], ticks[1]);
}

}  // namespace
}  // namespace atcsim
