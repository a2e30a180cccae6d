#include "simcore/shard.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"

namespace atcsim::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// kTimeNever-absorbing addition (both operands non-negative).
SimTime sat_add(SimTime a, SimTime b) {
  if (a >= kTimeNever - b) return kTimeNever;
  return a + b;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

obs::TraceEvent pdes_event(SimTime time, std::uint8_t type, std::int64_t a0,
                           std::int64_t a1) {
  obs::TraceEvent e;
  e.time = time;
  e.cat = obs::TraceCat::kPdes;
  e.type = type;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

}  // namespace

/// Persistent fork-join pool.  The coordinator publishes an epoch; each
/// worker processes the shards it owns (s % threads) for the current fused
/// phase and reports back.  All shard-state handoff rides on the epoch
/// publication (release) and the join (acquire), so the shard work itself
/// is lock-free and race-free (each shard has exactly one owner).
///
/// The barrier is an epoch counter and an outstanding-helper count, both
/// std::atomic.  Fork bumps the epoch (release) and notifies; workers spin a
/// short budget on the epoch with a CPU relax hint, then park in
/// std::atomic::wait.  Join mirrors it on the pending count.  At PDES round
/// rates (tens of microseconds of work per phase) this keeps the handoff in
/// user space; past the budget a waiting thread parks instead of burning
/// its core.
struct ShardGroup::Pool {
  explicit Pool(ShardGroup& group) : group_(group) {
    // Workers 1..threads-1; the coordinator thread doubles as worker 0.
    for (std::size_t w = 1; w < group_.threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Pool() {
    shutdown_.store(true, std::memory_order_relaxed);
    epoch_.v.fetch_add(1, std::memory_order_release);
    epoch_.v.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Runs the fused phase on every shard and joins; accounts the
  /// coordinator's join wait into the group's stats.
  void run_phase() {
    pending_.v.store(workers_.size(), std::memory_order_relaxed);
    epoch_.v.fetch_add(1, std::memory_order_release);
    epoch_.v.notify_all();
    for (std::size_t s = 0; s < group_.shards_.size();
         s += group_.threads_) {
      group_.fused_phase(s);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t p;
    int spins = 0;
    while ((p = pending_.v.load(std::memory_order_acquire)) != 0) {
      if (++spins > kSpinBudget) {
        pending_.v.wait(p, std::memory_order_acquire);
        spins = 0;
      } else {
        cpu_relax();
      }
    }
    group_.stats_.barrier_wait_s += seconds_since(t0);
  }

 private:
  void worker_loop(std::size_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e;
      int spins = 0;
      while ((e = epoch_.v.load(std::memory_order_acquire)) == seen) {
        if (++spins > kSpinBudget) {
          epoch_.v.wait(seen, std::memory_order_acquire);
          spins = 0;
        } else {
          cpu_relax();
        }
      }
      seen = e;
      if (shutdown_.load(std::memory_order_relaxed)) return;
      for (std::size_t s = w; s < group_.shards_.size();
           s += group_.threads_) {
        group_.fused_phase(s);
      }
      if (pending_.v.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.v.notify_all();
      }
    }
  }

  static constexpr int kSpinBudget = 1 << 12;

  ShardGroup& group_;
  std::vector<std::thread> workers_;

  // Epoch and pending on separate cache lines so the workers' park/unpark
  // traffic never collides with the fork publication.
  struct alignas(64) AlignedU64 {
    std::atomic<std::uint64_t> v{0};
  };
  struct alignas(64) AlignedSize {
    std::atomic<std::size_t> v{0};
  };
  AlignedU64 epoch_;
  AlignedSize pending_;
  std::atomic<bool> shutdown_{false};
};

ShardGroup::ShardGroup(std::vector<ShardExecutor*> shards, Options options)
    : shards_(std::move(shards)),
      lookahead_(options.lookahead),
      eot_extension_(options.eot_extension),
      chain_slack_(options.chain_slack),
      round_prologue_(std::move(options.round_prologue)),
      trace_(options.trace) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardGroup needs at least one shard");
  }
  if (lookahead_ <= 0) {
    throw std::invalid_argument(
        "ShardGroup lookahead must be positive; cross-shard messages must "
        "carry a minimum delay");
  }
  if (chain_slack_ < 0) {
    throw std::invalid_argument("ShardGroup chain_slack must be >= 0");
  }
  std::size_t threads = options.threads;
  if (threads == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    threads = std::max<std::size_t>(hw, 1);
  }
  threads_ = std::min(threads, shards_.size());
  slots_.assign(shards_.size(), ShardSlot{});
  bound_.assign(shards_.size(), kTimeNever);
  if (threads_ > 1) pool_ = std::make_unique<Pool>(*this);
}

ShardGroup::~ShardGroup() = default;

void ShardGroup::fused_phase(std::size_t s) {
  ShardExecutor* shard = shards_[s];
  ShardSlot& slot = slots_[s];
  const auto t0 = std::chrono::steady_clock::now();
  slot.executed += shard->advance_to(slot.horizon);
  slot.local_min = shard->next_event_time();
  slot.eot = shard->earliest_output_time();
  slot.phase_wall = seconds_since(t0);
}

void ShardGroup::rescan_all() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    slots_[s].local_min = shards_[s]->next_event_time();
    slots_[s].eot = shards_[s]->earliest_output_time();
  }
}

std::uint64_t ShardGroup::plan_horizons(SimTime m, SimTime deadline) {
  assert(lookahead_ > 0);
  // Classic CMB bound: every event at or after m produces cross-shard
  // messages due >= m + lookahead, i.e. strictly beyond this horizon.
  const SimTime classic = std::min(sat_add(m, lookahead_ - 1), deadline);
  if (!eot_extension_) {
    for (auto& slot : slots_) slot.horizon = std::max(classic, slot.horizon);
    return 0;
  }

  // bound_[s] currently seeds base_s = e_s + L, a due-time lower bound for
  // messages s posts from its current local state or its undelivered
  // inbound.  Messages caused by a *future* inbound message from q arrive
  // no earlier than D_q + chain_slack + L; since chain_slack + L > 0,
  // longer causal chains only push dues later, so the channel-clock fixed
  // point has the closed form
  //     D_s = min(base_s, (min over q != s of base_q) + chain_slack + L).
  SimTime low = kTimeNever, second = kTimeNever;
  std::size_t low_at = 0;
  for (std::size_t s = 0; s < bound_.size(); ++s) {
    if (bound_[s] < low) {
      second = low;
      low = bound_[s];
      low_at = s;
    } else {
      second = std::min(second, bound_[s]);
    }
  }
  const SimTime chain = sat_add(chain_slack_, lookahead_);
  for (std::size_t s = 0; s < bound_.size(); ++s) {
    const SimTime other = s == low_at ? second : low;
    bound_[s] = std::min(bound_[s], sat_add(other, chain));
  }

  // h_d = min over s != d of D_s, exclusive: no message can reach d at or
  // before it.  Monotone per shard — a later round may compute a smaller
  // bound (neighbours' clocks caught up), but the old bound quantified over
  // all future messages and remains valid forever.
  low = kTimeNever;
  second = kTimeNever;
  low_at = 0;
  for (std::size_t s = 0; s < bound_.size(); ++s) {
    if (bound_[s] < low) {
      second = low;
      low = bound_[s];
      low_at = s;
    } else {
      second = std::min(second, bound_[s]);
    }
  }
  std::uint64_t extended = 0;
  for (std::size_t d = 0; d < slots_.size(); ++d) {
    const SimTime inbound_bound = d == low_at ? second : low;
    SimTime h = inbound_bound == kTimeNever
                    ? deadline
                    : std::min(inbound_bound - 1, deadline);
    h = std::max(h, classic);
    h = std::max(h, slots_[d].horizon);
    slots_[d].horizon = h;
    if (h > classic) ++extended;
  }
  return extended;
}

std::uint64_t ShardGroup::run_until(SimTime deadline) {
  if (deadline < last_deadline_) {
    throw std::invalid_argument(
        "ShardGroup::run_until deadlines must be non-decreasing");
  }
  last_deadline_ = deadline;
  std::uint64_t before = 0;
  for (const auto& slot : slots_) before += slot.executed;
  // The previous call's alignment moved every clock past the last reported
  // times; refresh them before planning the first round.
  rescan_all();

  auto run_fused = [this] {
    if (pool_ != nullptr) {
      pool_->run_phase();
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) fused_phase(s);
    }
  };

  for (;;) {
    // Round plan (coordinator, between phases): fold each shard's earliest
    // undelivered inbound due into its next-event time, and seed the
    // channel clocks from its earliest-output bound.
    SimTime m = kTimeNever;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const SimTime pend = shards_[s]->pending_inbound_time();
      const SimTime next = std::min(slots_[s].local_min, pend);
      m = std::min(m, next);
      // A shard cannot post before its next event (output happens while
      // executing events), so the executor's bound is floored by it; posts
      // provoked by undelivered inbound are bounded by due + chain_slack.
      const SimTime local_out = std::max(slots_[s].eot, slots_[s].local_min);
      const SimTime e = std::min(local_out, sat_add(pend, chain_slack_));
      bound_[s] = sat_add(e, lookahead_);
    }

    if (m > deadline) {
      // Nothing at or before the deadline — but executors without a
      // pending-inbound bound may still hide undelivered posts.  Drain the
      // fabric serially and re-check; delivered dues past the deadline
      // surface as future events, dues inside it re-enter the loop.
      // Watermark kTimeNever is canonical-order safe here: every packet
      // still queued is due beyond the deadline (a due at or before it
      // would have kept m <= deadline), hence beyond every watermark any
      // shard has drained so far.
      if (round_prologue_) round_prologue_();
      for (ShardExecutor* shard : shards_) shard->deliver_inbound(kTimeNever);
      rescan_all();
      SimTime m2 = kTimeNever;
      for (const auto& slot : slots_) m2 = std::min(m2, slot.local_min);
      if (m2 > deadline) break;
      continue;
    }

    const std::uint64_t extended = plan_horizons(m, deadline);
    if (trace_ != nullptr) {
      SimTime h_min = kTimeNever, h_max = 0;
      for (const auto& slot : slots_) {
        h_min = std::min(h_min, slot.horizon);
        h_max = std::max(h_max, slot.horizon);
      }
      const SimTime classic = std::min(sat_add(m, lookahead_ - 1), deadline);
      ATCSIM_TRACE(trace_,
                   pdes_event(m, obs::ev::kRoundBegin,
                              static_cast<std::int64_t>(stats_.rounds),
                              static_cast<std::int64_t>(shards_.size())));
      ATCSIM_TRACE(trace_, pdes_event(m, obs::ev::kRoundHorizon, h_min, h_max));
      // How many classic rounds this one covers for the least-advanced
      // shard: the round structure a Chrome trace would otherwise show.
      ATCSIM_TRACE(trace_,
                   pdes_event(m, obs::ev::kRoundElide,
                              (h_min - classic) / lookahead_,
                              static_cast<std::int64_t>(extended)));
    }

    if (round_prologue_) round_prologue_();
    run_fused();

    ++stats_.rounds;
    stats_.horizon_extensions += extended;
    double worst = 0.0;
    for (const auto& slot : slots_) {
      stats_.serial_s += slot.phase_wall;
      worst = std::max(worst, slot.phase_wall);
    }
    stats_.critical_s += worst;
  }

  // No shard has events at or before the deadline; align all clocks so the
  // group's notion of "now" is well defined between calls.
  std::uint64_t after = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    slots_[s].executed += shards_[s]->advance_to(deadline);
    slots_[s].horizon = deadline;
    after += slots_[s].executed;
  }
  // Snapshot (not accumulate: the executors' counters are cumulative) the
  // incremental-bound cache effectiveness for reporting.
  stats_.bound_recomputes = 0;
  stats_.bound_cache_hits = 0;
  for (const ShardExecutor* shard : shards_) {
    const auto bc = shard->bound_counters();
    stats_.bound_recomputes += bc.recomputes;
    stats_.bound_cache_hits += bc.cache_hits;
  }
  return after - before;
}

}  // namespace atcsim::sim
