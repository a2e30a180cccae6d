#include "virt/vm.h"

#include <cassert>

namespace atcsim::virt {

Vm::Vm(VmId id, Node& node, VmType type, std::string name, int vcpus,
       VcpuId first_vcpu)
    : id_(id), node_(&node), type_(type), name_(std::move(name)) {
  assert(vcpus >= 0);
  vcpus_.reserve(static_cast<std::size_t>(vcpus));
  for (int i = 0; i < vcpus; ++i) {
    vcpus_.emplace_back(VcpuId{first_vcpu.value + i}, *this, i);
  }
}

bool Vm::any_running() const {
  for (const Vcpu& v : vcpus_) {
    if (v.running()) return true;
  }
  return false;
}

Vcpu* Vm::first_blocked() {
  for (Vcpu& v : vcpus_) {
    if (v.state() == VcpuState::kBlocked) return &v;
  }
  return nullptr;
}

}  // namespace atcsim::virt
