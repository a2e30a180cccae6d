// Shared harness helpers for the figure-reproduction benches.
//
// Durations default to values that finish in seconds; set
// ATCSIM_BENCH_SCALE=N (e.g. 3) to multiply the measurement windows for
// tighter statistics.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "cluster/scenario.h"
#include "simcore/time.h"

namespace atcsim::exp {

/// ATCSIM_BENCH_SCALE multiplier (1.0 when unset or invalid).
double scale_factor();

/// `base` scaled by scale_factor().
sim::SimTime scaled(sim::SimTime base);

/// Standard bench preamble on stdout.
void banner(const std::string& what, const std::string& setup);

/// Sets a fixed time slice on every guest VM (the Sec. II / Fig. 5 global
/// "xl sched-credit -t"-style sweep control).
void set_global_guest_slice(cluster::Scenario& s, sim::SimTime slice);

/// True when the harness should capture traces: a `--trace` argument was
/// passed, or ATCSIM_TRACE is set to anything but "0".  Set
/// SweepSpec::trace from this in figure benches.
bool trace_requested(int argc, char** argv);

/// Critical-path projection of a sharded run: `wall_s - serial_s +
/// critical_s` replaces the summed advance work of all shards (serial_s)
/// with the per-round slowest shard (critical_s).  It holds only when the
/// shards ran on one thread, so serial_s was really spent one shard after
/// another; with `threads` > 1 the shards already overlapped and the formula
/// subtracts parallel work twice, so no projection exists (std::nullopt).
std::optional<double> projected_wall_s(std::size_t threads, double wall_s,
                                       double serial_s, double critical_s);

}  // namespace atcsim::exp
