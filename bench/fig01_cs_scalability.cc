// Figure 1: scalability of Co-Scheduling (CS) vs Xen Credit (CR) for NPB lu
// on virtual clusters of 2..32 VMs (one VM per node, four identical
// clusters, 4x 8-VCPU VMs per 8-PCPU node).
//
// Paper shape: CS's normalized execution time *increases* with cluster size
// (0.30 at 2 VMs -> 0.44 at 32 VMs): gang dispatch fixes intra-VM stalls but
// VMs of one cluster on different nodes stay unaligned.
#include <cstdio>
#include <iostream>
#include <string>

#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "metrics/report.h"
#include "workload/npb_profiles.h"

using namespace atcsim;
using namespace atcsim::sim::time_literals;

namespace {

double run(cluster::Approach a, int nodes) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(nodes)
                .approach(a)
                .seed(42)
                .build();
  cluster::Scenario& s = *sp;
  cluster::build_type_a(s, "lu", workload::NpbClass::kB);
  s.start();
  s.warmup_and_measure(exp::scaled(2_s), exp::scaled(6_s));
  return s.mean_superstep_with_prefix("lu.B");
}

}  // namespace

int main() {
  exp::banner("Figure 1 — CS vs CR scalability (lu)",
              "N nodes x 4 VMs x 8 VCPUs, four identical virtual clusters");
  metrics::Table t("Fig. 1: normalized execution time of lu (vs CR)",
                   {"VMs per cluster", "CR", "CS"});
  for (int nodes : {2, 4, 8, 16, 32}) {
    const double cr = run(cluster::Approach::kCR, nodes);
    const double cs = run(cluster::Approach::kCS, nodes);
    t.add_row({std::to_string(nodes), "1.000", metrics::fmt(cs / cr)});
  }
  t.print(std::cout);
  std::printf("expected shape: CS column increases with cluster size "
              "(paper: 0.30 -> 0.44)\n");
  return 0;
}
