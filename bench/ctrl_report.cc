// ctrl_report: the cluster-control-plane headline experiment (DESIGN.md
// §12) — ATC time-slice control vs placement-based mitigation vs both,
// at 512 hosts.
//
// The workload is the mixed evaluation cell (Sec. IV-C shape scaled up):
// trace-synthesized parallel virtual clusters sharing every host with web
// servers, disk writers, STREAM/gcc/bzip2/sphinx3 CPU hogs and ping VMs.
// The CPU-bound guests are live-migratable, so the placement controller
// (Approach::kPM) has real freedom while the BSP ranks stay pinned — the
// paper's setting, where time-slice control is the only knob that helps
// the parallel apps directly and placement relieves the cache pressure
// around them.
//
// Per approach the record keeps the metrics the controllers move:
//
//  * vc_superstep_s   — mean superstep over every virtual cluster ("VC*"),
//                       the parallel-application figure of merit;
//  * spin_latency_s   — wall spin latency per synchronization episode
//                       averaged over all parallel VMs;
//  * llc_miss_rate    — platform-wide LLC misses per simulated second;
//  * migrations       — live migrations started (0 unless kPM/kATCPM);
//  * events / wall_s  — simulator throughput on this host.
//
// plus a "vs_cr" block normalizing each approach's superstep to the CR
// baseline (paper convention: CR = 1, smaller is better).  The kATCPM
// point is also re-run sharded (s4) to exercise the control plane through
// the conservative-PDES path: the rebalancer is cell-local by design, so
// the sharded point is a separate record, not a determinism check (those
// live in pdes_invariance_test with scripted moves).
//
// The run record is one JSON object on stdout (progress goes to stderr).
//
//   ctrl_report                          # 512 hosts
//   ctrl_report --quick                  # 64 hosts, short windows (CI)
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scenarios.h"

namespace {

using namespace atcsim;
using namespace sim::time_literals;
using Clock = std::chrono::steady_clock;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct CtrlRun {
  cluster::Approach approach = cluster::Approach::kCR;
  int shards = 1;
  double vc_superstep_s = 0;
  double spin_latency_s = 0;
  double llc_miss_rate = 0;
  std::uint64_t migrations = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
};

CtrlRun run_cell(cluster::Approach a, int shards, int nodes,
                 sim::SimTime warmup, sim::SimTime measure) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(nodes)
                .approach(a)
                .seed(97)
                .shards(shards)
                .build();
  cluster::Scenario& s = *sp;
  cluster::build_mixed(s);
  s.start();
  const auto t0 = Clock::now();
  s.warmup_and_measure(warmup, measure);
  CtrlRun r;
  r.approach = a;
  r.shards = shards;
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.vc_superstep_s = s.mean_superstep_with_prefix("VC");
  r.spin_latency_s = s.avg_parallel_spin_latency();
  r.llc_miss_rate = s.llc_miss_rate();
  r.events = s.events_executed();
  for (int k = 0; k < s.shard_count(); ++k) {
    r.migrations += s.migrator(k).migrations_started();
  }
  return r;
}

void emit_run(std::ostringstream& os, const CtrlRun& r) {
  os << "  \"" << cluster::approach_name(r.approach);
  if (r.shards > 1) os << "_s" << r.shards;
  os << "\": {\"vc_superstep_s\": " << json_number(r.vc_superstep_s)
     << ", \"spin_latency_s\": " << json_number(r.spin_latency_s)
     << ", \"llc_miss_rate\": " << json_number(r.llc_miss_rate)
     << ", \"migrations\": " << r.migrations
     << ", \"events\": " << r.events
     << ", \"wall_s\": " << json_number(r.wall_s) << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;  // small cell, short windows: CI smoke on tiny runners
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  const int nodes = quick ? 64 : 512;
  // The rebalancer observes one 30 ms accounting period per decision and
  // sits out ten after each move: the warmup must cover classifier + EWMA
  // convergence and the measure window tens of periods, so the placement
  // controller gets to act repeatedly rather than once.
  const sim::SimTime warmup = quick ? 300_ms : 1_s;
  const sim::SimTime measure = quick ? 600_ms : 2_s;

  const cluster::Approach approaches[] = {
      cluster::Approach::kCR, cluster::Approach::kATC,
      cluster::Approach::kPM, cluster::Approach::kATCPM};
  std::vector<CtrlRun> runs;
  for (cluster::Approach a : approaches) {
    std::fprintf(stderr, "ctrl_report: mixed%d %s...\n", nodes,
                 cluster::approach_name(a).c_str());
    runs.push_back(run_cell(a, /*shards=*/1, nodes, warmup, measure));
  }
  // The combined approach once more through the sharded engine (4 cells).
  std::fprintf(stderr, "ctrl_report: mixed%d ATC+PM s4...\n", nodes);
  runs.push_back(
      run_cell(cluster::Approach::kATCPM, /*shards=*/4, nodes, warmup,
               measure));

  std::ostringstream run;
  run << "{\n"
      << "  \"build_type\": \"" << ATCSIM_BUILD_TYPE << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"nodes\": " << nodes << ",\n"
      << "  \"sim_ms\": " << (warmup + measure) / 1'000'000 << ",\n"
      << "  \"methodology\": \"mixed trace-synthesized cell; metrics "
         "from the post-warmup window; vs_cr normalizes each approach's "
         "mean VC superstep to the CR baseline (CR = 1, smaller is "
         "better); the _s4 point runs the same cell through the sharded "
         "engine with cell-local rebalancing\",\n";
  for (const CtrlRun& r : runs) emit_run(run, r);
  const double cr = runs.front().vc_superstep_s;
  run << "  \"vs_cr\": {";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    run << (i > 1 ? ", " : "") << "\""
        << cluster::approach_name(runs[i].approach)
        << (runs[i].shards > 1 ? "_s" + std::to_string(runs[i].shards) : "")
        << "\": "
        << json_number(cr > 0 ? runs[i].vc_superstep_s / cr : 0);
  }
  run << "}\n}";
  std::printf("%s\n", run.str().c_str());
  return 0;
}
