// Shared runner for the Sec. IV-C mixed-workload experiment behind
// Figures 12, 13 and 14: type-B virtual clusters coexisting with web,
// bonnie++, stream, SPEC-CPU and ping VMs on 32 nodes.
//
// ATC appears twice: ATC(30ms) leaves non-parallel VMs at the VMM default;
// ATC(6ms) uses the Sec. III-C administrator interface to give them a 6 ms
// slice.
//
// All seven variants execute through the experiment runner as one cached
// parallel sweep; the three figure binaries share its .atcsim-cache/
// entries, so only the first of them ever simulates.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"

namespace atcsim::bench {

struct MixedVariant {
  std::string label;
  cluster::Approach approach;
  sim::SimTime admin_slice = -1;  // >=0: set on every non-parallel guest VM
};

inline std::vector<MixedVariant> mixed_variants() {
  return {
      {"CR", cluster::Approach::kCR, -1},
      {"BS", cluster::Approach::kBS, -1},
      {"CS", cluster::Approach::kCS, -1},
      {"DSS", cluster::Approach::kDSS, -1},
      {"VS", cluster::Approach::kVS, -1},
      {"ATC(30ms)", cluster::Approach::kATC, -1},
      {"ATC(6ms)", cluster::Approach::kATC, 6 * sim::kMillisecond},
  };
}

struct MixedResult {
  cluster::MixedLayout layout;
  std::map<std::string, double> parallel_mean;  // key -> mean superstep (s)
  std::map<std::string, double> web_resp;       // key -> mean response (s)
  std::map<std::string, double> rates;          // key -> units/s
  std::map<std::string, double> ping_rtt;       // key -> mean RTT (s)
};

/// Trial body for the mixed scenario.  The trial's `slice` is the
/// administrator slice for non-parallel guests (kAdaptiveSlice = leave at
/// the VMM default), not a global override.  Metric names are
/// "<category>/<app key>" so the per-key maps can be rebuilt.
inline exp::TrialResult run_mixed_trial(const exp::Trial& t) {
  auto s = cluster::ScenarioBuilder{}
               .nodes(t.nodes)
               .pcpus_per_node(t.pcpus_per_node)
               .vms_per_node(t.vms_per_node)
               .vcpus_per_vm(t.vcpus)
               .approach(t.approach)
               .seed(t.seed())
               .build();
  const cluster::MixedLayout layout = cluster::build_mixed(*s);
  if (t.slice >= 0) {
    for (std::size_t i = 0; i < s->platform().vm_count(); ++i) {
      virt::Vm& vm = s->platform().vm(virt::VmId{static_cast<int>(i)});
      if (!vm.is_dom0() && !vm.is_parallel()) vm.set_admin_slice(t.slice);
    }
  }
  s->start();
  s->warmup_and_measure(t.warmup, t.measure);

  exp::TrialResult r;
  r.trial_id = t.id;
  for (const auto& key : layout.vc_keys) {
    r.metrics["superstep/" + key] = s->mean_superstep(key);
  }
  for (const auto& key : layout.independent_parallel_keys) {
    r.metrics["superstep/" + key] = s->mean_superstep(key);
  }
  for (const auto& key : layout.web_keys) {
    r.metrics["web_s/" + key] = s->metrics().latency(key).mean_seconds();
  }
  for (const auto& key : layout.disk_keys) {
    r.metrics["disk_rate/" + key] = s->metrics().rate(key).per_second();
  }
  for (const auto& key : layout.stream_keys) {
    r.metrics["stream_rate/" + key] = s->metrics().rate(key).per_second();
  }
  for (const auto& key : layout.cpu_keys) {
    r.metrics["cpu_rate/" + key] = s->metrics().rate(key).per_second();
  }
  for (const auto& key : layout.ping_keys) {
    r.metrics["rtt/" + key] = s->metrics().latency(key).mean_seconds();
  }
  return r;
}

/// Creation-order sort: layout keys embed their creation index right after
/// the alphabetic prefix ("web12", "VC3:lu.C"), so numeric order restores
/// the order build_mixed() produced.
inline void sort_by_embedded_index(std::vector<std::string>& keys) {
  auto index_of = [](const std::string& k) {
    std::size_t i = 0;
    while (i < k.size() && !std::isdigit(static_cast<unsigned char>(k[i])))
      ++i;
    return std::atoi(k.c_str() + i);
  };
  std::stable_sort(keys.begin(), keys.end(),
                   [&](const std::string& a, const std::string& b) {
                     return index_of(a) < index_of(b);
                   });
}

/// Rebuilds the per-key maps + layout key lists from one trial's flattened
/// metrics.
inline MixedResult unflatten_mixed(const exp::TrialResult& r) {
  MixedResult m;
  for (const auto& [name, value] : r.metrics) {
    const auto slash = name.find('/');
    if (slash == std::string::npos) continue;
    const std::string category = name.substr(0, slash);
    const std::string key = name.substr(slash + 1);
    if (category == "superstep") {
      m.parallel_mean[key] = value;
      if (key.rfind("VC", 0) == 0) {
        m.layout.vc_keys.push_back(key);
      } else {
        m.layout.independent_parallel_keys.push_back(key);
      }
    } else if (category == "web_s") {
      m.web_resp[key] = value;
      m.layout.web_keys.push_back(key);
    } else if (category == "disk_rate") {
      m.rates[key] = value;
      m.layout.disk_keys.push_back(key);
    } else if (category == "stream_rate") {
      m.rates[key] = value;
      m.layout.stream_keys.push_back(key);
    } else if (category == "cpu_rate") {
      m.rates[key] = value;
      m.layout.cpu_keys.push_back(key);
    } else if (category == "rtt") {
      m.ping_rtt[key] = value;
      m.layout.ping_keys.push_back(key);
    }
  }
  sort_by_embedded_index(m.layout.vc_keys);
  sort_by_embedded_index(m.layout.independent_parallel_keys);
  sort_by_embedded_index(m.layout.web_keys);
  sort_by_embedded_index(m.layout.disk_keys);
  sort_by_embedded_index(m.layout.stream_keys);
  sort_by_embedded_index(m.layout.cpu_keys);
  sort_by_embedded_index(m.layout.ping_keys);
  return m;
}

inline exp::SweepSpec mixed_spec(const std::vector<cluster::Approach>& as,
                                 const std::vector<sim::SimTime>& slices,
                                 std::uint64_t seed) {
  using namespace sim::time_literals;
  exp::SweepSpec spec;
  spec.name = "mixed_scenario";
  spec.apps = {"mixed"};  // layout is trace-driven; the app axis is unused
  spec.approaches = as;
  spec.nodes = {32};
  spec.slices = slices;
  spec.seeds = {seed};
  spec.warmup = exp::scaled(2_s);
  spec.measure = exp::scaled(5_s);
  return spec;
}

/// Runs all seven variants (parallel, cached) and returns label -> result.
inline std::map<std::string, MixedResult> run_mixed_all(
    std::uint64_t seed = 42) {
  // Two sweeps over one cache namespace: every approach at the default
  // admin slice, plus ATC with the 6 ms administrator slice.
  const auto spec_default =
      mixed_spec({cluster::Approach::kCR, cluster::Approach::kBS,
                  cluster::Approach::kCS, cluster::Approach::kDSS,
                  cluster::Approach::kVS, cluster::Approach::kATC},
                 {exp::kAdaptiveSlice}, seed);
  const auto spec_admin = mixed_spec({cluster::Approach::kATC},
                                     {6 * sim::kMillisecond}, seed);
  const auto defaults = exp::run_sweep(spec_default, run_mixed_trial);
  const auto admin = exp::run_sweep(spec_admin, run_mixed_trial);
  exp::emit_results_env(spec_default, defaults);

  std::map<std::string, MixedResult> out;
  for (const exp::Trial& t : exp::expand(spec_default)) {
    const std::string name = cluster::approach_name(t.approach);
    out.emplace(name == "ATC" ? "ATC(30ms)" : name,
                unflatten_mixed(defaults[static_cast<std::size_t>(t.id)]));
  }
  out.emplace("ATC(6ms)", unflatten_mixed(admin.front()));
  return out;
}

inline double mean_of(const std::map<std::string, double>& m,
                      const std::vector<std::string>& keys,
                      const std::string& name_prefix = "") {
  double sum = 0;
  int n = 0;
  for (const auto& key : keys) {
    if (!name_prefix.empty() && key.rfind(name_prefix, 0) != 0) continue;
    auto it = m.find(key);
    if (it == m.end() || it->second <= 0) continue;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

}  // namespace atcsim::bench
