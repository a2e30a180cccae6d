// Calibration constants of the platform model.
//
// Values are chosen to match the paper's testbed (2x Intel Xeon E5620, Xen
// 4.2.1 credit scheduler, 1 GbE) at the granularity the experiments need.
// Every experiment takes a ModelParams so ablations can vary them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/time.h"

namespace atcsim::virt {

using sim::SimTime;
using namespace sim::time_literals;

struct ModelParams {
  // --- CPU / scheduling -----------------------------------------------
  /// Direct cost of a VCPU context switch (save/restore, VMENTRY/VMEXIT).
  SimTime context_switch_cost = 2_us;

  /// LLC refill time after the cache was polluted by another VCPU; scaled by
  /// the workload's cache sensitivity.  This is the term that produces the
  /// Fig. 8 performance inflection below ~0.2-0.3 ms slices.
  SimTime cache_refill_penalty = 12_us;

  /// A VCPU can only lose what it had warmed: the refill debt charged at
  /// dispatch is min(cache_refill_penalty * sensitivity, last_stint *
  /// cache_warm_ratio).  Keeps sub-100us slices degraded but progressing.
  double cache_warm_ratio = 0.5;

  /// LLC misses charged per refill (Xenoprof substitute; ~working set lines).
  std::uint64_t llc_misses_per_refill = 8192;

  /// Xen credit default time slice ("xl sched-credit -t 30").
  SimTime default_time_slice = 30_ms;

  /// Credit accounting period; also the ATC control period ("scheduling
  /// period of VMM" in the paper).
  SimTime accounting_period = 30_ms;

  /// Credit tick (Xen: 10 ms, three ticks per slice).  At each tick a
  /// running VCPU whose priority class is now worse than its queue head's
  /// is preempted, so under-served VMs wait at most one tick, not a slice.
  SimTime tick_period = 10_ms;

  /// Minimum slice the platform supports (hypercall granularity).
  SimTime min_time_slice = 30'000;  // 30 us

  /// When true, a woken VCPU with BOOST priority preempts the running VCPU
  /// immediately (credit-1 "tickle").  Default off: in the paper's
  /// overcommitted hosts boost preemption is ineffective (Fig. 4 counts a
  /// full scheduling wait at every hop); see DESIGN.md.
  bool wake_preemption = false;

  /// Per-dispatch time-slice jitter (interrupts, accounting ticks).
  /// Breaks the artificial lock-step alignment of symmetric run queues
  /// that a deterministic simulator would otherwise exhibit.
  double slice_jitter = 0.03;

  /// Minimum runtime a VCPU is guaranteed before it can be *preempted*
  /// (Xen's sched_ratelimit_us, scaled to the sub-ms slices ATC uses).
  /// Slice expiry is unaffected.  Prevents zero-progress preemption storms
  /// under gang dispatch / wake preemption.
  SimTime preempt_min_run = 100_us;

  /// Credits granted per PCPU per accounting period (Xen uses 300/30ms).
  double credits_per_pcpu_per_period = 300.0;

  /// Credit cap (absolute value) a VCPU may accumulate, as in Xen.
  double credit_clip = 300.0;

  // --- Network (Xen split driver + 1 GbE fabric) ------------------------
  /// One-way wire propagation + switch latency between nodes.
  SimTime wire_latency = 60_us;

  /// Fabric bandwidth per NIC (bytes/second); 1 GbE = 125 MB/s.
  double nic_bandwidth_bps = 125.0e6;

  /// dom0 CPU cost to process one packet (event channel + ring + netback).
  SimTime dom0_packet_cost = 8_us;

  /// dom0 CPU cost per KiB copied through netback.
  SimTime dom0_per_kib_cost = 1_us;

  /// Initial capacity of each dom0 backend's job ring (expected in-flight
  /// netback/blkback jobs per node).  The ring is built at this size by the
  /// node's first job and doubles when it fills — tracing a net.ring_grow
  /// event — so this only sets the cold-start size; at 96 B/slot the
  /// default costs 64 * 96 B = 6 KiB per node that does I/O.
  std::size_t dom0_ring_slots = 64;

  /// Guest-side cost to post or receive one packet.
  SimTime guest_packet_cost = 3_us;

  // --- Sharded execution (conservative PDES; DESIGN.md §10) -------------
  /// When true, slice-jitter and scheduler randomness derive from per-node
  /// streams keyed by the *global* node id instead of the shared platform
  /// stream.  Makes scheduling randomness independent of how nodes are
  /// partitioned into shards, so `shards ∈ {1,2,4,8}` produce identical
  /// results for a fixed shard map.  Off by default: the legacy shared
  /// stream is what the committed golden traces were recorded with, and
  /// Scenario forces this on automatically whenever shards > 1.
  bool per_node_streams = false;

  /// Smallest cross-shard lookahead the conservative synchronizer will
  /// accept.  The lookahead horizon is wire_latency (every cross-shard
  /// packet pays at least one wire delay); building a sharded scenario with
  /// wire_latency below this floor throws, because rounds that advance less
  /// than the floor per barrier synchronize more than they simulate.
  SimTime pdes_lookahead_floor = 1_us;

  /// Initial capacity of each per-(src,dst) shard mailbox, in packets.  The
  /// mailboxes retain their high-water capacity across rounds (the same
  /// policy as dom0_ring_slots), so this only sets the cold-start size of
  /// one round's cross-shard exchange batch.
  std::size_t pdes_mailbox_slots = 256;

  /// When true (default), the round synchronizer extends per-shard horizons
  /// past the classic global_min + wire_latency bound using each shard's
  /// earliest-output-time: a shard whose next events are purely local
  /// (timers, compute segments, dom0 work with no remote send in flight)
  /// cannot cap its neighbours before it could actually emit a packet, so
  /// rounds get fewer and fatter (DESIGN.md §10).  The simulated outcome is
  /// bit-identical either way; only the round structure changes.
  bool pdes_eot_extension = true;

  // --- Cluster control plane (contention model + live migration) --------
  /// LLC (socket) domains per host; the contention model divides a host's
  /// aggregate guest miss pressure by this (two sockets absorb twice the
  /// misses before thrashing).  Matches the paper's 2-socket testbed.
  int llc_domains_per_node = 2;

  /// Stop-and-copy floor of a live migration: even a tiny VM is paused at
  /// least this long (final dirty-round + handshake).
  SimTime migration_downtime_floor = 30_ms;

  /// Default guest working-set size copied by a migration when the VM does
  /// not declare one (Vm::ws_bytes).  Small on purpose: at 1 GbE, 32 MiB
  /// keeps a move ~0.3 s so short experiment windows can afford several.
  std::int64_t migration_ws_bytes = 32ll << 20;

  // --- Disk (blkback path) ----------------------------------------------
  /// Device service latency per request once dom0 has issued it.
  SimTime disk_latency = 150_us;

  /// Disk streaming bandwidth (bytes/second).
  double disk_bandwidth_bps = 120.0e6;

  /// dom0 CPU cost per disk request.
  SimTime dom0_disk_cost = 10_us;
};

}  // namespace atcsim::virt
