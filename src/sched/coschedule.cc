#include "sched/coschedule.h"

#include <cassert>

#include "virt/platform.h"

namespace atcsim::sched {

using sim::SimTime;

CoScheduler::CoScheduler(CsOptions cs, Options base)
    : CreditScheduler(base), cs_(cs) {}

void CoScheduler::attach(virt::Node& node, virt::Engine& engine) {
  CreditScheduler::attach(node, engine);
  forced_.assign(node.pcpus().size(), nullptr);
}

Vcpu* CoScheduler::pick_next(Pcpu& p) {
  Vcpu*& slot = forced_[static_cast<std::size_t>(p.index_in_node())];
  if (slot != nullptr) {
    // A gang pick must not displace a protected VCPU waiting at this
    // queue's front; the slot stays armed for the next dispatch instead.
    const bool outranked = queue_depth(p.index_in_node()) > 0 &&
                           gang_protected(*queue_front(p.index_in_node()));
    if (!outranked) {
      Vcpu* v = slot;
      slot = nullptr;
      if (v->runnable()) {
        last_pick_forced_ = true;
        v->sched().boosted = false;
        v->sched().queue = p.id();
        return v;
      }
      // The sibling blocked/exited in the meantime; fall through.
    }
  }
  last_pick_forced_ = false;
  return CreditScheduler::pick_next(p);
}

void CoScheduler::on_dispatched(Vcpu& v, Pcpu& p) {
  CreditScheduler::on_dispatched(v, p);
  if (last_pick_forced_) return;  // this dispatch IS part of a gang launch
  const Vm& vm = v.vm();
  if (!gang_.contains(&vm)) return;
  const SimTime now = engine().simulation().now();
  auto [it, inserted] = last_gang_dispatch_.try_emplace(&vm, -vm.time_slice());
  if (!inserted && now - it->second < vm.time_slice()) return;  // rate limit
  it->second = now;

  // Claim a PCPU for every runnable sibling.  Real co-scheduling migrates
  // VCPUs so the whole VM runs simultaneously, so siblings are assigned to
  // any claimable PCPU (not just their own run queue's), each rescheduled
  // immediately (deferred one event so the current dispatch completes).
  std::vector<Pcpu*> free_pcpus;
  for (auto& pc : node().pcpus()) {
    if (pc.get() == &p) continue;
    if (forced_[static_cast<std::size_t>(pc->index_in_node())] != nullptr) {
      continue;  // claimed by an earlier gang launch
    }
    if (pc->current() != nullptr) {
      if (&pc->current()->vm() == &vm || pc->current()->vm().is_dom0()) {
        continue;  // sibling already running there / never preempt dom0
      }
      // Co-scheduling reorders execution but must not steal CPU share
      // from under-served non-concurrent VMs or boosted wakes.
      if (gang_protected(*pc->current())) continue;
    }
    free_pcpus.push_back(pc.get());
  }
  std::size_t next_target = 0;
  for (Vcpu& sibling : v.vm().vcpus()) {
    Vcpu* s = &sibling;
    if (s == &v || !s->runnable()) continue;
    if (next_target >= free_pcpus.size()) break;
    if (!remove_from_queue(*s)) continue;  // raced with another pick
    Pcpu& target = *free_pcpus[next_target++];
    s->sched().queue = target.id();
    forced_[static_cast<std::size_t>(target.index_in_node())] = s;
    Pcpu* tp = &target;
    engine().simulation().call_in(
        0, [this, tp] { engine().request_resched(*tp); });
  }
}

bool CoScheduler::gang_protected(const Vcpu& w) const {
  if (w.vm().is_dom0()) return true;
  const virt::CreditPrio prio = effective_prio(w);
  if (prio == virt::CreditPrio::kBoost) return true;
  // Under-served non-concurrent VMs (web/CPU) keep their turns; spinning
  // parallel VMs preempt each other freely.
  return prio == virt::CreditPrio::kUnder && !gang_.contains(&w.vm()) &&
         !w.vm().is_parallel();
}

void CoScheduler::update_gang_flags(const sync::PeriodMonitor& monitor) {
  gang_.clear();
  for (const auto& vm : node().vms()) {
    if (vm->is_dom0() || vm->vcpu_count() < 2) continue;
    if (monitor.last(vm->id()).spin_wall > cs_.spin_threshold) {
      gang_.insert(vm.get());
    }
  }
}

}  // namespace atcsim::sched
