// Figure 11 (+ Table I): evaluation type B — mixed parallel applications on
// virtual clusters synthesized from the LLNL Atlas trace.
//
// 32 nodes, 128 8-VCPU VMs: ten virtual clusters (256..16 VCPUs, Table I
// proportions) each running a random NPB class-B code, the remaining 30 VMs
// independent (lu/is).  Paper shape (VC1/sp example): ATC 0.25, DSS 0.45,
// CS 0.49, BS 0.90, CR 1.
#include <cstdio>
#include <iostream>
#include <string>

#include "cluster/scenarios.h"
#include "cluster/trace.h"
#include "exp/bench_util.h"
#include "metrics/report.h"

using namespace atcsim;
using namespace atcsim::sim::time_literals;

namespace {

struct Run {
  std::vector<std::string> keys;
  std::vector<double> means;  // per key
};

Run run(cluster::Approach a) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(32)
                .approach(a)
                .seed(42)
                .build();
  cluster::Scenario& s = *sp;
  const cluster::TypeBLayout layout = cluster::build_type_b(s);
  s.start();
  s.warmup_and_measure(exp::scaled(2_s), exp::scaled(5_s));
  Run r;
  r.keys = layout.vc_keys;
  // Report two independent VMs as well, as the paper does.
  r.keys.push_back(layout.independent_keys[0]);
  r.keys.push_back(layout.independent_keys[1]);
  for (const auto& key : r.keys) r.means.push_back(s.mean_superstep(key));
  return r;
}

}  // namespace

int main() {
  exp::banner("Figure 11 — type B: trace-synthesized virtual clusters",
              "32 nodes, 128 VMs, ten VCs per Table I + independent VMs");

  metrics::Table t1("Table I: Atlas VC-size distribution (S=VCPUs, P=share)",
                    {"S", "P"});
  for (const auto& b : cluster::atlas_table1()) {
    t1.add_row({b.vcpus > 0 ? std::to_string(b.vcpus) : "others",
                metrics::fmt(b.percent, 1) + "%"});
  }
  t1.print(std::cout);

  const std::vector<cluster::Approach> approaches = {
      cluster::Approach::kBS, cluster::Approach::kCS, cluster::Approach::kDSS,
      cluster::Approach::kATC};
  const Run cr = run(cluster::Approach::kCR);
  std::vector<Run> results;
  results.reserve(approaches.size());
  for (cluster::Approach a : approaches) results.push_back(run(a));

  metrics::Table t("Fig. 11: normalized exec time per virtual cluster vs CR",
                   {"cluster", "BS", "CS", "DSS", "ATC"});
  for (std::size_t k = 0; k < cr.keys.size(); ++k) {
    std::vector<std::string> row = {cr.keys[k]};
    for (const Run& r : results) {
      row.push_back(cr.means[k] > 0 ? metrics::fmt(r.means[k] / cr.means[k])
                                    : "n/a");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("expected shape per VC: ATC < DSS ~ CS < BS <= CR "
              "(paper VC1/sp: 0.25 / 0.45 / 0.49 / 0.90)\n");
  return 0;
}
