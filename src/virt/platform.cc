#include "virt/platform.h"

#include <cassert>

#include "virt/engine.h"
#include "virt/scheduler.h"

namespace atcsim::virt {

namespace {
/// Salts separating the derived per-node stream families from each other
/// and from app-level splits of the shared stream.
constexpr std::uint64_t kDispatchStreamSalt = 0xD15BA7C4ULL;
constexpr std::uint64_t kSchedStreamSalt = 0x5C4EDC4EULL;

/// Pure function of (seed, salt, global node id): a fresh parent per call
/// makes the stream independent of every other draw in the run.
sim::Rng derived_stream(std::uint64_t seed, std::uint64_t salt, int gid) {
  sim::Rng parent(seed);
  return parent.split(salt + static_cast<std::uint64_t>(gid));
}
}  // namespace

Platform::Platform(sim::Simulation& simulation, PlatformConfig config)
    : sim_(&simulation), config_(config), rng_(config.seed) {
  assert(config_.nodes > 0 && config_.pcpus_per_node > 0);
  if (config_.params.per_node_streams) {
    node_streams_.reserve(static_cast<std::size_t>(config_.nodes));
    for (int n = 0; n < config_.nodes; ++n) {
      node_streams_.push_back(derived_stream(config_.seed, kDispatchStreamSalt,
                                             config_.node_id_offset + n));
    }
  }
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    auto node = std::make_unique<Node>(NodeId{n}, *this, n);
    node->set_llc_domains(config_.params.llc_domains_per_node);
    for (int c = 0; c < config_.pcpus_per_node; ++c) {
      auto pcpu = std::make_unique<Pcpu>(
          PcpuId{static_cast<std::int32_t>(pcpus_.size())}, *node, c);
      pcpus_.push_back(pcpu.get());
      node->pcpus().push_back(std::move(pcpu));
    }
    nodes_.push_back(std::move(node));
  }
  engine_ = std::make_unique<Engine>(simulation, *this);
  // Every node gets a driver domain; net/disk backends attach workloads.
  // Named by global node id so names stay unique and stable across shard
  // maps (offset is 0 on unsharded platforms).
  for (auto& node : nodes_) {
    Vm& dom0 = create_vm(node->id(), VmType::kDom0,
                         "dom0-n" + std::to_string(global_node_id(*node)),
                         config_.dom0_vcpus);
    node->set_dom0(&dom0);
  }
}

sim::Rng Platform::scheduler_rng(Node& node) {
  if (!config_.params.per_node_streams) {
    return rng_.split(static_cast<std::uint64_t>(node.index()) + 0x5EED);
  }
  return derived_stream(config_.seed, kSchedStreamSalt,
                        global_node_id(node));
}

Platform::~Platform() = default;

Vm& Platform::create_vm(NodeId node_id, VmType type, const std::string& name,
                        int vcpus) {
  assert(node_id.valid() && node_id.index() < nodes_.size());
  Node& node = *nodes_[node_id.index()];
  auto vm = std::make_unique<Vm>(
      VmId{static_cast<std::int32_t>(vms_.size())}, node, type, name, vcpus,
      VcpuId{static_cast<std::int32_t>(vcpus_.size())});
  vm->set_time_slice(config_.params.default_time_slice);
  for (Vcpu& v : vm->vcpus()) vcpus_.push_back(&v);
  vms_.push_back(vm.get());
  node.vms().push_back(std::move(vm));
  ++topology_version_;
  return *vms_.back();
}

void Platform::set_scheduler(NodeId node_id, std::unique_ptr<Scheduler> sched) {
  assert(node_id.valid() && node_id.index() < nodes_.size());
  nodes_[node_id.index()]->set_scheduler(std::move(sched));
}

std::vector<Vm*> Platform::guest_vms() const {
  std::vector<Vm*> out;
  for (Vm* vm : vms_) {
    if (vm != nullptr && !vm->is_dom0()) out.push_back(vm);
  }
  return out;
}

std::unique_ptr<Vm> Platform::expel_vm(Vm& vm) {
  assert(!vm.is_dom0());
  Node& node = vm.node();
  assert(vms_[vm.id().index()] == &vm);
  vms_[vm.id().index()] = nullptr;
  for (Vcpu& v : vm.vcpus()) {
    assert(vcpus_[v.id().index()] == &v);
    vcpus_[v.id().index()] = nullptr;
  }
  ++topology_version_;
  // Extract ownership but keep the (now null) slot, so sibling VMs keep
  // their node-local positions and the scheduler's dense per-VM indices.
  for (auto& slot : node.vms()) {
    if (slot.get() == &vm) return std::move(slot);
  }
  assert(false && "expel_vm: vm not owned by its node");
  return nullptr;
}

Vm& Platform::adopt_vm(NodeId node_id, std::unique_ptr<Vm> vm) {
  assert(node_id.valid() && node_id.index() < nodes_.size());
  assert(vm != nullptr);
  Node& node = *nodes_[node_id.index()];
  // Fresh local identities from the id-space tails; the old slots (on
  // whichever platform expelled it) stay tombstoned forever.
  vm->set_id(VmId{static_cast<std::int32_t>(vms_.size())});
  vm->set_node(node);
  for (Vcpu& v : vm->vcpus()) {
    v.set_id(VcpuId{static_cast<std::int32_t>(vcpus_.size())});
    vcpus_.push_back(&v);
  }
  vms_.push_back(vm.get());
  node.vms().push_back(std::move(vm));
  ++topology_version_;
  // The travelled flag belongs to the source platform's ring (that entry
  // now resolves to a tombstone there); re-enroll under the fresh id so the
  // destination monitor folds any mid-period stats the VM carried over.
  Vm& adopted = *vms_.back();
  adopted.set_period_dirty(false);
  mark_period_activity(adopted);
  return adopted;
}

}  // namespace atcsim::virt
