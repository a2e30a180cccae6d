// Figure 10: evaluation type A — the same parallel application on four
// identical virtual clusters, scaling from 2 to 32 physical nodes, under
// BS, CS, DSS and ATC (normalized to CR).
//
// Paper shape: ATC best and flat across scales (e.g. lu 0.15 at 8 nodes);
// CS between BS and ATC and degrading with scale; BS only marginally better
// than CR; DSS between CS and ATC.
//
// The (app x approach x nodes) grid — CR baselines included — runs through
// the experiment runner: parallel across host cores and cached on disk.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "metrics/report.h"
#include "workload/npb_profiles.h"

using namespace atcsim;
using namespace atcsim::sim::time_literals;

int main(int argc, char** argv) {
  exp::banner(
      "Figure 10 — type A: same app on four virtual clusters, 2-32 nodes",
      "N nodes x 4x8-VCPU VMs (4:1), normalized execution time vs CR");
  const std::vector<cluster::Approach> columns = {
      cluster::Approach::kBS, cluster::Approach::kCS, cluster::Approach::kDSS,
      cluster::Approach::kATC};

  exp::SweepSpec spec;
  spec.name = "fig10_typeA_same_apps";
  spec.trace = exp::trace_requested(argc, argv);
  spec.apps = workload::npb_apps();
  spec.classes = {workload::NpbClass::kB};
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kBS,
                     cluster::Approach::kCS, cluster::Approach::kDSS,
                     cluster::Approach::kATC};
  spec.nodes = {2, 4, 8, 16, 32};
  spec.vcpus_per_vm = {8};
  spec.seeds = {42};
  spec.warmup = exp::scaled(2_s);
  spec.measure = exp::scaled(5_s);

  const auto results = exp::run_sweep(
      spec, [](const exp::Trial& t) { return exp::run_type_a_trial(t); });
  const auto trials = exp::expand(spec);
  std::map<std::pair<std::string, std::pair<int, int>>, double> exec;
  for (const exp::Trial& t : trials) {
    exec[{t.app, {static_cast<int>(t.approach), t.nodes}}] =
        results[static_cast<std::size_t>(t.id)].metrics.at("superstep_s");
  }
  auto cell = [&](const std::string& app, cluster::Approach a, int nodes) {
    return exec.at({app, {static_cast<int>(a), nodes}});
  };

  for (const auto& app : spec.apps) {
    metrics::Table t("Fig. 10 (" + app + ".B): normalized exec time vs CR",
                     {"nodes", "BS", "CS", "DSS", "ATC"});
    for (int nodes : spec.nodes) {
      const double cr = cell(app, cluster::Approach::kCR, nodes);
      std::vector<std::string> row = {std::to_string(nodes)};
      for (cluster::Approach a : columns) {
        row.push_back(metrics::fmt(cell(app, a, nodes) / cr));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  std::printf("expected shape: ATC lowest and ~flat; CS rises with scale; "
              "BS close to 1 (paper example, lu @ 8 nodes: BS 0.85, CS 0.38, "
              "ATC 0.15)\n");
  exp::emit_results_env(spec, results);
  return 0;
}
