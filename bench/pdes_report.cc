// pdes_report: one-shot speedup report for the sharded conservative-PDES
// engine (DESIGN.md §10) on the cluster-scale macro.
//
// The workload is the paper's 512-node type-A evaluation cell (four LU.B
// virtual clusters per node group, ATC controllers, full network) run
// through cluster::ScenarioBuilder at shards = 1, 2, 4 and 8.  For every
// shard count the report records both:
//
//  * measured — events per wall second on this host.  On a machine with
//    fewer cores than shards the round phases serialize, so this number
//    mostly shows that sharding costs little even when it cannot win;
//  * projected — the same run re-timed on the critical path: the
//    ShardGroup accounts, per round, the summed advance time of all shards
//    (serial_s) and the slowest single shard (critical_s), so
//    `projected_wall_s = wall_s - serial_s + critical_s` is the wall time a
//    host with >= K free cores cannot beat and a perfectly balanced one
//    achieves.  "speedup_projected.sK" = measured s1 wall / projected sK
//    wall.  Only runs whose shards shared one worker thread carry a
//    projection: with more threads serial_s sums work that already ran in
//    parallel (exp::projected_wall_s).
//
// It is the one tool that runs a sharded point on more than two worker
// threads; the timed same-host comparisons live in perfbench/.  The run
// record is one JSON object on stdout (progress goes to stderr).
//
//   pdes_report                         # 512 nodes, shards 1..8
//   pdes_report --quick                 # 128 nodes, shards {1,2} (CI smoke)
//   pdes_report --shards 4              # cap the shard sweep
//   pdes_report --threads 1,2,4         # also sweep worker threads at the
//                                       # top shard count (t-suffixed keys)
//   pdes_report --xl                    # add a 16384-node point (10 ms
//                                       # window; 2048 nodes under --quick
//                                       # so CI smoke stays runnable)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "simcore/shard.h"

namespace {

using namespace atcsim;
using namespace sim::time_literals;
using Clock = std::chrono::steady_clock;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct ShardRun {
  int shards = 1;
  std::size_t threads = 0;      // 0 = auto (min(shards, host cores))
  std::size_t ran_threads = 1;  // worker threads the run actually used
  std::uint64_t events = 0;
  double wall_s = 0;            // best-of-N measured wall (this host)
  std::uint64_t rounds = 0;
  std::uint64_t horizon_extensions = 0;  // EOT horizons past the classic bound
  double critical_s = 0;        // sum over rounds of the slowest shard
  double serial_s = 0;          // sum over rounds of all shards' advance work
  double barrier_wait_s = 0;    // coordinator join-wait (fork-join overhead)
  std::optional<double> projected_wall_s;  // single-thread runs only
  std::uint64_t bound_recomputes = 0;  // effect-bound VM recomputations
  std::uint64_t bound_cache_hits = 0;  // dirty-ring skips (cached bounds)
};

/// One timed execution of the macro at `shards`; construction/teardown of
/// the K engine stacks stays outside the timed window.
ShardRun run_macro(int shards, std::size_t threads, int nodes,
                   sim::SimTime duration, int reps) {
  ShardRun best;
  best.shards = shards;
  best.threads = threads;
  best.wall_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    auto s = cluster::ScenarioBuilder{}
                 .nodes(nodes)
                 .pcpus_per_node(8)
                 .vms_per_node(4)
                 .vcpus_per_vm(8)
                 .approach(cluster::Approach::kATC)
                 .seed(7)
                 .shards(shards)
                 .shard_threads(threads)
                 .build();
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
    s->start();
    const auto t0 = Clock::now();
    s->run_for(duration);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (wall < best.wall_s) {
      best.wall_s = wall;
      best.events = s->events_executed();
      if (const sim::ShardGroup* g = s->shard_group()) {
        best.ran_threads = g->thread_count();
        best.rounds = g->stats().rounds;
        best.horizon_extensions = g->stats().horizon_extensions;
        best.critical_s = g->stats().critical_s;
        best.serial_s = g->stats().serial_s;
        best.barrier_wait_s = g->stats().barrier_wait_s;
        best.bound_recomputes = g->stats().bound_recomputes;
        best.bound_cache_hits = g->stats().bound_cache_hits;
      }
    }
  }
  // Unsharded runs have no round accounting: the projection is the
  // measurement.  (critical_s <= serial_s always, so projected <= wall.)
  best.projected_wall_s = exp::projected_wall_s(
      best.ran_threads, best.wall_s, best.serial_s, best.critical_s);
  return best;
}

void emit_shard_run(std::ostringstream& os, int nodes, const ShardRun& r) {
  const double per_sec =
      r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  os << "  \"macro_lu" << nodes << "_s" << r.shards;
  if (r.threads != 0) os << "_t" << r.threads;
  os << "\": {\"per_sec\": " << json_number(per_sec)
     << ", \"events\": " << r.events
     << ", \"wall_s\": " << json_number(r.wall_s)
     << ", \"rounds\": " << r.rounds
     << ", \"horizon_extensions\": " << r.horizon_extensions
     << ", \"critical_s\": " << json_number(r.critical_s)
     << ", \"serial_s\": " << json_number(r.serial_s)
     << ", \"barrier_wait_s\": " << json_number(r.barrier_wait_s);
  if (r.projected_wall_s.has_value() && *r.projected_wall_s > 0) {
    os << ", \"projected_wall_s\": " << json_number(*r.projected_wall_s)
       << ", \"projected_per_sec\": "
       << json_number(static_cast<double>(r.events) / *r.projected_wall_s);
  }
  os << ", \"bound_recomputes\": " << r.bound_recomputes
     << ", \"bound_cache_hits\": " << r.bound_cache_hits
     << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool xl = false;
  int max_shards = 8;
  std::vector<std::size_t> thread_sweep;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;  // small macro, shards {1,2}: CI smoke on tiny runners
    } else if (a == "--xl") {
      xl = true;  // 16384-node point (2048 under --quick)
    } else if (a == "--shards" && i + 1 < argc) {
      max_shards = std::atoi(argv[++i]);
    } else if (a == "--threads" && i + 1 < argc) {
      std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!tok.empty()) {
          thread_sweep.push_back(
              static_cast<std::size_t>(std::atoi(tok.c_str())));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--xl] [--shards K] "
                   "[--threads T1,T2,...]\n",
                   argv[0]);
      return 2;
    }
  }

  const int nodes = quick ? 128 : 512;
  const sim::SimTime duration = quick ? 100_ms : 250_ms;
  const int reps = quick ? 1 : 2;
  if (quick && max_shards > 2) max_shards = 2;

  std::vector<ShardRun> runs;
  for (int shards : {1, 2, 4, 8}) {
    if (shards > max_shards) break;
    std::fprintf(stderr, "pdes_report: macro_lu%d_s%d...\n", nodes, shards);
    runs.push_back(run_macro(shards, /*threads=*/0, nodes, duration, reps));
  }

  // Thread sweep at the top shard count: same simulation (the merged
  // outcome is thread-count invariant), different host-side parallelism —
  // the number that actually measures the pool and barrier on >1 cores.
  std::vector<ShardRun> thread_runs;
  const int top_shards = runs.back().shards;
  for (std::size_t t : thread_sweep) {
    if (t == 0 || t > static_cast<std::size_t>(top_shards) || top_shards < 2) {
      continue;
    }
    std::fprintf(stderr, "pdes_report: macro_lu%d_s%d_t%zu...\n", nodes,
                 top_shards, t);
    thread_runs.push_back(run_macro(top_shards, t, nodes, duration, reps));
  }

  // The --xl point: the 10k+-host scale the incremental effect-time index
  // exists for.  16384 nodes with a 10 ms window keeps the wall time in the
  // same ballpark as the standard macro (round cost is O(changed), so the
  // window, not the cluster, dominates); under --quick it shrinks to 2048
  // nodes so the CI perf-smoke job can afford it on tiny runners.
  std::vector<ShardRun> xl_runs;
  const int xl_nodes = quick ? 2048 : 16384;
  if (xl) {
    for (int shards : {1, top_shards}) {
      if (shards > max_shards) break;
      std::fprintf(stderr, "pdes_report: macro_lu%d_s%d...\n", xl_nodes,
                   shards);
      xl_runs.push_back(
          run_macro(shards, /*threads=*/0, xl_nodes, 10_ms, /*reps=*/1));
      if (top_shards == 1) break;
    }
  }

  std::ostringstream run;
  run << "{\n"
      << "  \"build_type\": \"" << ATCSIM_BUILD_TYPE << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"nodes\": " << nodes << ",\n"
      << "  \"sim_ms\": " << duration / 1'000'000 << ",\n"
      << "  \"methodology\": \"projected_wall_s = wall_s - serial_s + "
         "critical_s: the summed advance time of all shards is replaced by "
         "the per-round slowest shard, the span a host with >= K cores "
         "cannot beat; only runs on one worker thread are projected; "
         "measured numbers are from this host_cores host\",\n";
  for (const ShardRun& r : runs) emit_shard_run(run, nodes, r);
  for (const ShardRun& r : thread_runs) emit_shard_run(run, nodes, r);
  for (const ShardRun& r : xl_runs) emit_shard_run(run, xl_nodes, r);
  const double base_wall = runs.front().wall_s;
  run << "  \"speedup_measured\": {";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    run << (i > 1 ? ", " : "") << "\"s" << runs[i].shards
        << "\": " << json_number(base_wall / runs[i].wall_s);
  }
  run << "},\n  \"speedup_projected\": {";
  const char* sep = "";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (!runs[i].projected_wall_s.has_value()) continue;
    run << sep << "\"s" << runs[i].shards
        << "\": " << json_number(base_wall / *runs[i].projected_wall_s);
    sep = ", ";
  }
  run << "}\n}";
  std::printf("%s\n", run.str().c_str());
  return 0;
}
