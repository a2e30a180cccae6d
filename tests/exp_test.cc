// Experiment-runner subsystem: grid expansion, seed determinism, the
// ScenarioBuilder contract, result caching, and the serial-vs-parallel
// byte-identity guarantee the emitters provide.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <atomic>
#include <sstream>

#include "cluster/scenario.h"
#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace atcsim {
namespace {

namespace fs = std::filesystem;
using namespace sim::time_literals;

exp::SweepSpec small_grid() {
  exp::SweepSpec spec;
  spec.name = "exp_test";
  spec.apps = {"lu", "is"};
  spec.classes = {workload::NpbClass::kA};
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kATC};
  spec.nodes = {2};
  spec.vcpus_per_vm = {4};
  spec.slices = {exp::kAdaptiveSlice, 6_ms};
  spec.seeds = {7, 8};
  spec.repetitions = 2;
  return spec;
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("atcsim-exp-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

TEST(SweepSpecTest, ExpandProducesFullGridWithStableIds) {
  const exp::SweepSpec spec = small_grid();
  const auto trials = exp::expand(spec);
  EXPECT_EQ(spec.grid_size(), 2u * 2u * 2u * 2u * 2u);
  ASSERT_EQ(trials.size(), spec.grid_size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].id, static_cast<int>(i));
  }
  // apps outermost, repetitions innermost.
  EXPECT_EQ(trials[0].app, "lu");
  EXPECT_EQ(trials[0].rep, 0);
  EXPECT_EQ(trials[1].rep, 1);
  EXPECT_EQ(trials[trials.size() - 1].app, "is");
}

TEST(SweepSpecTest, ExpansionAndSeedsAreDeterministic) {
  const exp::SweepSpec spec = small_grid();
  const auto a = exp::expand(spec);
  const auto b = exp::expand(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed(), b[i].seed()) << i;
    EXPECT_EQ(a[i].label(), b[i].label()) << i;
    EXPECT_EQ(exp::trial_hash(a[i]), exp::trial_hash(b[i])) << i;
  }
}

TEST(SweepSpecTest, RepZeroUsesBaseSeedAndRepsDiverge) {
  exp::SweepSpec spec = small_grid();
  spec.repetitions = 3;
  const auto trials = exp::expand(spec);
  EXPECT_EQ(trials[0].seed(), trials[0].base_seed);
  EXPECT_NE(trials[1].seed(), trials[0].seed());
  EXPECT_NE(trials[2].seed(), trials[1].seed());
}

TEST(SweepSpecTest, TrialHashDistinguishesEveryCell) {
  const auto trials = exp::expand(small_grid());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    for (std::size_t j = i + 1; j < trials.size(); ++j) {
      EXPECT_NE(exp::trial_hash(trials[i]), exp::trial_hash(trials[j]))
          << trials[i].label() << " vs " << trials[j].label();
    }
  }
}

TEST(ScenarioBuilderTest, RejectsNonPositiveCounts) {
  EXPECT_THROW(cluster::ScenarioBuilder{}.nodes(0).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.nodes(-3).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.vcpus_per_vm(-1).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.vms_per_node(0).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.pcpus_per_node(0).validated(),
               std::invalid_argument);
}

TEST(ScenarioBuilderTest, RejectsWideVmsUnlessAllowed) {
  auto wide = cluster::ScenarioBuilder{}.pcpus_per_node(8).vcpus_per_vm(16);
  EXPECT_THROW(wide.validated(), std::invalid_argument);
  EXPECT_NO_THROW(wide.allow_wide_vms().validated());
}

TEST(ScenarioBuilderTest, BuildsConfiguredScenario) {
  auto s = cluster::ScenarioBuilder{}
               .nodes(3)
               .vcpus_per_vm(2)
               .approach(cluster::Approach::kATC)
               .seed(99)
               .build();
  EXPECT_EQ(s->config().nodes, 3);
  EXPECT_EQ(s->config().vcpus_per_vm, 2);
  EXPECT_EQ(s->config().approach, cluster::Approach::kATC);
  EXPECT_EQ(s->config().seed, 99u);
}

exp::TrialResult fake_trial(const exp::Trial& t,
                            std::atomic<int>* invocations) {
  invocations->fetch_add(1);
  exp::TrialResult r;
  r.trial_id = t.id;
  r.metrics["value"] = static_cast<double>(t.id) * 1.5;
  r.metrics["seed"] = static_cast<double>(t.seed());
  return r;
}

TEST(RunnerTest, CacheMissThenHitSkipsExecution) {
  TempDir dir;
  const exp::SweepSpec spec = small_grid();
  exp::RunOptions opts;
  opts.cache_dir = dir.str();
  opts.progress = false;
  std::atomic<int> invocations{0};
  auto fn = [&](const exp::Trial& t) { return fake_trial(t, &invocations); };

  const auto cold = exp::run_sweep(spec, fn, opts);
  EXPECT_EQ(invocations.load(), static_cast<int>(spec.grid_size()));
  for (const auto& r : cold) EXPECT_FALSE(r.from_cache);

  const auto warm = exp::run_sweep(spec, fn, opts);
  EXPECT_EQ(invocations.load(), static_cast<int>(spec.grid_size()))
      << "warm run must not re-execute any trial";
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].metrics, cold[i].metrics);
  }
}

TEST(RunnerTest, CacheDisabledReExecutes) {
  TempDir dir;
  const exp::SweepSpec spec = small_grid();
  exp::RunOptions opts;
  opts.cache_dir = dir.str();
  opts.progress = false;
  opts.use_cache = false;
  std::atomic<int> invocations{0};
  auto fn = [&](const exp::Trial& t) { return fake_trial(t, &invocations); };
  exp::run_sweep(spec, fn, opts);
  exp::run_sweep(spec, fn, opts);
  EXPECT_EQ(invocations.load(), 2 * static_cast<int>(spec.grid_size()));
}

TEST(RunnerTest, DifferentTagUsesDifferentCache) {
  TempDir dir;
  exp::SweepSpec spec = small_grid();
  exp::RunOptions opts;
  opts.cache_dir = dir.str();
  opts.progress = false;
  std::atomic<int> invocations{0};
  auto fn = [&](const exp::Trial& t) { return fake_trial(t, &invocations); };
  exp::run_sweep(spec, fn, opts);
  spec.tag = "variant";
  exp::run_sweep(spec, fn, opts);
  EXPECT_EQ(invocations.load(), 2 * static_cast<int>(spec.grid_size()));
}

TEST(RunnerTest, TrialExceptionPropagatesAfterDrain) {
  TempDir dir;
  exp::SweepSpec spec = small_grid();
  exp::RunOptions opts;
  opts.cache_dir = dir.str();
  opts.progress = false;
  opts.threads = 2;
  auto fn = [&](const exp::Trial& t) -> exp::TrialResult {
    if (t.id == 3) throw std::runtime_error("trial 3 exploded");
    exp::TrialResult r;
    r.trial_id = t.id;
    return r;
  };
  EXPECT_THROW(exp::run_sweep(spec, fn, opts), std::runtime_error);
}

// The acceptance-criterion regression test: a 2-thread parallel sweep of a
// real (small) spec serializes to exactly the same JSONL bytes as a serial
// run of the same spec.
TEST(RunnerTest, ParallelMatchesSerialByteForByte) {
  exp::SweepSpec spec;
  spec.name = "exp_test_determinism";
  spec.apps = {"lu"};
  spec.classes = {workload::NpbClass::kA};
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kATC};
  spec.nodes = {2};
  spec.vcpus_per_vm = {4};
  spec.vms_per_node = 2;
  spec.slices = {exp::kAdaptiveSlice, 6_ms};
  spec.seeds = {42};
  spec.warmup = 200_ms;
  spec.measure = 500_ms;

  auto fn = [](const exp::Trial& t) { return exp::run_type_a_trial(t); };

  exp::RunOptions serial;
  serial.threads = 1;
  serial.use_cache = false;
  serial.progress = false;
  exp::RunOptions parallel;
  parallel.threads = 2;
  parallel.use_cache = false;
  parallel.progress = false;

  const auto serial_results = exp::run_sweep(spec, fn, serial);
  const auto parallel_results = exp::run_sweep(spec, fn, parallel);

  std::ostringstream serial_jsonl, parallel_jsonl;
  exp::write_jsonl(serial_jsonl, spec, serial_results);
  exp::write_jsonl(parallel_jsonl, spec, parallel_results);
  EXPECT_FALSE(serial_jsonl.str().empty());
  EXPECT_EQ(serial_jsonl.str(), parallel_jsonl.str());

  std::ostringstream serial_csv, parallel_csv;
  exp::write_csv(serial_csv, spec, serial_results);
  exp::write_csv(parallel_csv, spec, parallel_results);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(RunnerTest, CachedRerunEmitsIdenticalJsonl) {
  TempDir dir;
  exp::SweepSpec spec;
  spec.name = "exp_test_cache_jsonl";
  spec.apps = {"is"};
  spec.classes = {workload::NpbClass::kA};
  spec.approaches = {cluster::Approach::kCR};
  spec.nodes = {2};
  spec.vcpus_per_vm = {4};
  spec.vms_per_node = 2;
  spec.warmup = 100_ms;
  spec.measure = 300_ms;

  exp::RunOptions opts;
  opts.cache_dir = dir.str();
  opts.progress = false;
  auto fn = [](const exp::Trial& t) { return exp::run_type_a_trial(t); };

  const auto cold = exp::run_sweep(spec, fn, opts);
  const auto warm = exp::run_sweep(spec, fn, opts);
  ASSERT_EQ(warm.size(), cold.size());
  EXPECT_TRUE(warm[0].from_cache);

  std::ostringstream a, b;
  exp::write_jsonl(a, spec, cold);
  exp::write_jsonl(b, spec, warm);
  EXPECT_EQ(a.str(), b.str())
      << "cache round-trip must preserve metric bits";
}

TEST(EmitTest, JsonlRowShape) {
  const auto trials = exp::expand(small_grid());
  exp::TrialResult r;
  r.trial_id = trials[0].id;
  r.metrics["superstep_s"] = 0.125;
  const std::string row = exp::jsonl_row(trials[0], r);
  EXPECT_NE(row.find("\"trial\":0"), std::string::npos);
  EXPECT_NE(row.find("\"app\":\"lu\""), std::string::npos);
  EXPECT_NE(row.find("\"approach\":\"CR\""), std::string::npos);
  EXPECT_NE(row.find("\"slice_ms\":null"), std::string::npos);
  EXPECT_NE(row.find("\"superstep_s\":0.125"), std::string::npos);
  EXPECT_EQ(row.find("from_cache"), std::string::npos)
      << "cache state must not leak into emitted rows";
}

TEST(BenchUtilTest, CriticalPathProjectionOnlyForOneThread) {
  // Four threads: serial_s (3.5 s) summed shard work that overlapped in a
  // 1.0 s wall, so wall - serial + critical would claim -1.6 s.
  EXPECT_FALSE(exp::projected_wall_s(4, 1.0, 3.5, 0.9).has_value());
  EXPECT_FALSE(exp::projected_wall_s(2, 1.0, 0.6, 0.4).has_value());
  // One thread ran the shards back to back: the projection stands.
  const auto one = exp::projected_wall_s(1, 4.0, 3.5, 0.9);
  ASSERT_TRUE(one.has_value());
  EXPECT_DOUBLE_EQ(*one, 1.4);
  // Unsharded runs account no rounds: the projection is the measurement.
  EXPECT_DOUBLE_EQ(*exp::projected_wall_s(1, 2.0, 0.0, 0.0), 2.0);
}

}  // namespace
}  // namespace atcsim
