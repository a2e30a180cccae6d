// Algorithm 2 of the paper: the per-node ATC controller.
//
// At the start of every VMM scheduling period the controller
//  1. computes a candidate slice for each VM running a parallel application
//     (Algorithm 1, from that VM's spinlock-latency history),
//  2. assigns the *minimum* candidate to every parallel VM on the node
//     (uniform short slice: a long-slice VM ahead in the run queue would
//     inflate everyone's spin latency), and
//  3. sets non-parallel VMs to the administrator-specified slice when one
//     exists, otherwise the VMM default (so they are unaffected).
// Complexity is O(N) in the number of VMs, as in the paper.
#pragma once

#include <memory>
#include <vector>

#include "atc/algorithm.h"
#include "atc/classifier.h"
#include "atc/config.h"
#include "sync/period_monitor.h"
#include "virt/node.h"

namespace atcsim::atc {

class AtcController {
 public:
  AtcController(virt::Node& node, const sync::PeriodMonitor& monitor,
                AtcConfig cfg = {});

  /// Period hook (wire via PeriodMonitor::subscribe).
  void on_period();

  /// Candidate slice most recently computed for a VM (for tests/benches).
  sim::SimTime last_candidate(virt::VmId id) const;

  const AtcConfig& config() const { return cfg_; }

  /// Whether the controller currently treats `vm` as parallel (admin
  /// declaration, or the classifier's label when auto_classify is on).
  bool treats_as_parallel(const virt::Vm& vm) const;

 private:
  virt::Node* node_;
  const sync::PeriodMonitor* monitor_;
  AtcConfig cfg_;
  /// Controller state of one VM slot of the node.
  struct VmState {
    PeriodHistory history;
    sim::SimTime candidate = 0;  ///< last Algorithm 1 result
    double wakeup_rate = 0.0;    ///< EWMA of wake-ups per second
  };
  std::vector<VmState> vms_;  // by VM index within the node
  std::unique_ptr<VmClassifier> classifier_;  // when auto_classify
};

/// Creates one controller per node and subscribes them all to the monitor,
/// appending the RAII subscription handles to `subs` (they must stay alive
/// as long as the controllers do — ApproachRuntime holds both).  The
/// returned vector owns the controllers; keep it alive for the run.
std::vector<std::unique_ptr<AtcController>> install_atc(
    virt::Platform& platform, sync::PeriodMonitor& monitor, AtcConfig cfg,
    std::vector<sync::PeriodMonitor::Subscription>& subs);

}  // namespace atcsim::atc
