// Platform: the whole simulated cluster (nodes, VMs, VCPUs) plus the engine.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "virt/ids.h"
#include "virt/node.h"
#include "virt/params.h"

namespace atcsim {
namespace net {
class VirtualNetwork;
}  // namespace net

namespace virt {

class Engine;

struct PlatformConfig {
  int nodes = 1;
  int pcpus_per_node = 8;
  int dom0_vcpus = 1;
  ModelParams params;
  std::uint64_t seed = 1;
  /// Global id of this platform's first node.  A sharded scenario carves
  /// the cluster into contiguous node blocks, one Platform per shard; the
  /// offset keeps node-derived identities (dom0 names, per-node RNG
  /// streams) functions of the *global* node id, so results do not depend
  /// on where the shard boundaries fall.  0 for unsharded platforms.
  int node_id_offset = 0;
};

class Platform {
 public:
  Platform(sim::Simulation& simulation, PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  sim::Simulation& simulation() { return *sim_; }
  const ModelParams& params() const { return config_.params; }
  const PlatformConfig& config() const { return config_; }
  sim::Rng& rng() { return rng_; }

  /// Global node id of a node owned by this platform (node_id_offset plus
  /// the node's local index); shard-map independent.
  int global_node_id(const Node& node) const {
    return config_.node_id_offset + node.index();
  }

  /// Stream for dispatch-time slice jitter on `node`.  With
  /// ModelParams::per_node_streams this is a per-node stream keyed by the
  /// global node id; otherwise it is the legacy shared platform stream.
  sim::Rng& dispatch_rng(Node& node) {
    return node_streams_.empty()
               ? rng_
               : node_streams_[static_cast<std::size_t>(node.index())];
  }

  /// Seed stream handed to `node`'s scheduler at attach.  The legacy branch
  /// reproduces the historical split (and its mutation of the shared
  /// stream) bit for bit; the per-node branch is a pure function of
  /// (seed, global node id).
  sim::Rng scheduler_rng(Node& node);

  /// Owning network, set by VirtualNetwork::attach().  Lets cross-shard
  /// senders route a packet to the shard that owns its source VM.
  void set_network(net::VirtualNetwork* net) { network_ = net; }
  net::VirtualNetwork* network() const { return network_; }

  /// Creates a guest VM on `node` with `vcpus` VCPUs.  Workloads must be
  /// attached to each VCPU before Engine::start().
  Vm& create_vm(NodeId node, VmType type, const std::string& name, int vcpus);

  /// Installs the per-node scheduler (same factory result on every node in
  /// every experiment here, but the API is per node as in Xen).
  void set_scheduler(NodeId node, std::unique_ptr<Scheduler> sched);

  Engine& engine() { return *engine_; }

  std::vector<std::unique_ptr<Node>>& nodes() { return nodes_; }
  Node& node(NodeId id) { return *nodes_[id.index()]; }
  Vm& vm(VmId id) {
    assert(vms_[id.index()] != nullptr);  // expelled ids are tombstoned
    return *vms_[id.index()];
  }
  Vcpu& vcpu(VcpuId id) { return *vcpus_[id.index()]; }
  Pcpu& pcpu(PcpuId id) { return *pcpus_[id.index()]; }
  std::size_t vm_count() const { return vms_.size(); }
  std::size_t vcpu_count() const { return vcpus_.size(); }

  /// Null-safe VM lookup: nullptr for out-of-range ids and for slots left
  /// behind by a VM that migrated off this platform (tombstones).  Every
  /// id-sweeping consumer (monitors, stat loops) must use this instead of
  /// vm().
  Vm* vm_ptr(VmId id) {
    const std::size_t i = static_cast<std::size_t>(id.index());
    return (id.valid() && i < vms_.size()) ? vms_[i] : nullptr;
  }

  /// All guest (non-dom0) VMs currently resident, platform-wide, in id
  /// order (skips migration tombstones).
  std::vector<Vm*> guest_vms() const;

  /// Bumped whenever the resident VM set changes (create/expel/adopt).
  /// Control-plane caches keyed on the VM population (the xenoprof
  /// per-node pressure sums) invalidate against this instead of hooking
  /// every mutation site.
  std::uint64_t topology_version() const { return topology_version_; }

  // --- period-activity dirty ring ----------------------------------------
  /// Flags `vm` as having written a per-period accumulator since the last
  /// monitor sweep; PeriodMonitor::sample visits only ringed VMs instead of
  /// walking every id slot.  O(1), idempotent within a period.
  void mark_period_activity(Vm& vm) {
    if (vm.period_dirty()) return;
    vm.set_period_dirty(true);
    period_dirty_.push_back(vm.id());
  }
  /// The ring itself; the monitor swaps it empty at each sweep (capacity is
  /// exchanged, so the steady state allocates nothing).
  std::vector<VmId>& period_dirty_ring() { return period_dirty_; }

  // --- live migration ----------------------------------------------------

  /// Detaches `vm` from this platform: its id slots become tombstones and
  /// the node keeps a null placeholder so sibling VMs' scheduler indices
  /// stay dense.  The caller receives ownership; the VCPUs must already be
  /// off-CPU and out of every run queue (Engine::pause_and_expel does both).
  std::unique_ptr<Vm> expel_vm(Vm& vm);

  /// Adopts a VM expelled from another (or this) platform onto `node`:
  /// assigns fresh local VmId/VcpuIds from the id-space tails and rewires
  /// the VM's node back-pointer.  The engine resumes the VCPUs separately.
  Vm& adopt_vm(NodeId node, std::unique_ptr<Vm> vm);

 private:
  sim::Simulation* sim_;
  PlatformConfig config_;
  sim::Rng rng_;
  /// Per-node dispatch-jitter streams; empty unless per_node_streams.
  std::vector<sim::Rng> node_streams_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Flat id-indexed views (non-owning: nodes own VMs and PCPUs, VMs own
  // their VCPUs).
  std::vector<Vm*> vms_;
  std::vector<Vcpu*> vcpus_;
  std::vector<Pcpu*> pcpus_;
  std::unique_ptr<Engine> engine_;
  net::VirtualNetwork* network_ = nullptr;
  std::uint64_t topology_version_ = 0;
  std::vector<VmId> period_dirty_;
};

}  // namespace virt
}  // namespace atcsim
