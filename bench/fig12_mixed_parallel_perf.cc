// Figure 12: parallel application performance when parallel and
// non-parallel applications coexist (Sec. IV-C).
//
// Paper shape: ATC(30ms)/ATC(6ms) best; CS better than DSS here (DSS is
// misled by latency-insensitive co-tenants that keep long slices); DSS
// better than VS; BS ~ CR.
#include <cstdio>
#include <iostream>

#include "exp/bench_util.h"
#include "metrics/report.h"
#include "mixed_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  exp::banner("Figure 12 — parallel performance in the mixed scenario",
              "32 nodes, type-B virtual clusters + web/bonnie/SPEC/stream/ping "
              "independents");
  const std::map<std::string, MixedResult> results = run_mixed_all();
  const MixedResult& cr = results.at("CR");

  metrics::Table t("Fig. 12: normalized exec time of the virtual clusters "
                   "vs CR",
                   {"cluster", "BS", "CS", "DSS", "VS", "ATC(30ms)",
                    "ATC(6ms)"});
  for (const auto& key : cr.layout.vc_keys) {
    const double base = cr.parallel_mean.at(key);
    std::vector<std::string> row = {key};
    for (const char* label :
         {"BS", "CS", "DSS", "VS", "ATC(30ms)", "ATC(6ms)"}) {
      const double v = results.at(label).parallel_mean.at(key);
      row.push_back(base > 0 && v > 0 ? metrics::fmt(v / base) : "n/a");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("expected shape: ATC variants lowest; CS < DSS is possible "
              "here (paper: DSS inferior to CS in the mixed scenario); "
              "DSS < VS; BS ~ 1\n");
  return 0;
}
