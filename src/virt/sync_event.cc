#include "virt/sync_event.h"

#include "obs/trace.h"
#include "virt/engine.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace atcsim::virt {

void SyncEvent::signal() {
  if (signalled_) return;
  signalled_ = true;
  // Any pending effect-index entry is dead from here on: either this is the
  // registered timer itself firing (the entry's time is <= now) or the
  // condition fired early and the waiters are being consumed, so the entry
  // no longer guards anything.  Bumping the sequence invalidates the heap
  // node lazily.
  clear_effect_pending();
  // Detach the whole chain before waking anyone: a waiter that registers
  // again while on_signalled runs lands in a fresh list, not in the chain
  // being consumed.
  Vcpu* chain = head_;
  head_ = nullptr;
  tail_ = nullptr;
#if ATCSIM_TRACE_ENABLED
  if (obs::TraceSink* sink = engine_->simulation().trace()) {
    obs::TraceEvent e;
    e.time = engine_->simulation().now();
    e.cat = obs::TraceCat::kSync;
    e.type = obs::ev::kSignal;
    if (chain != nullptr) {
      e.vm = chain->vm().id().value;
      e.vcpu = chain->id().value;
    }
    std::int64_t woken = 0;
    for (const Vcpu* v = chain; v != nullptr; v = v->eng().next_waiter) {
      ++woken;
    }
    e.a0 = woken;
    sink->emit(e);
  }
#endif
  if (chain != nullptr) engine_->on_signalled(chain);
}

void SyncEvent::notify_effect_waiters_changed() {
  engine_->on_effect_event_changed(*this);
}

}  // namespace atcsim::virt
