// atcbench: one atcsim benchmark workload per process (see README.md).
//
//   atcbench --workload NAME [--seed N] [--seconds S] [--revision STR]
//            [--spans PATH] [--perturb-digest]
//
// Each repetition drives the public cluster API exactly as a user run does:
// ScenarioBuilder::build(), the layout function, Scenario::start(), a warm-up
// run_for(), metrics().reset_all() + reset_platform_stats(), the measured
// run_for(), and destruction of the Scenario; the run_for() calls advance in
// fixed simulated steps.  Repetitions continue until
// --seconds of wall time have passed (at least three), and each one is
// checked: it must execute events, complete a superstep in every virtual
// cluster (or, where the window is too short for one, advance every shard),
// start a migration where the workload expects one, and reproduce the first
// repetition's simulated digest bit for bit.
//
// Two binaries are built from this file.  atcbench times the end-to-end
// metrics.  atcbench_traced (ATCBENCH_TRACED) alternates untraced and
// traced repetitions: the odd, traced ones also count allocations, record
// spans around every call above and read the layer counters through public
// accessors after the measured run, and each one's run time minus that of
// its untraced neighbours is the tracing overhead.  The timed calls are the
// same in every repetition of both binaries, so all report the same digest.
//
// Host-speed correction: the host's cores slow down and speed up under
// co-tenant load for seconds to minutes at a time.  Between the steps of
// every repetition the binary times a fixed register-only probe, which runs
// no simulator code.  A repetition's slowdown is its mean probe time over the
// probe's time on an idle core, and its times are divided by the slowdown
// raised to kSlowdownExponent: the simulator slows by less than the probe
// (README.md has the measurements).  A slower simulator leaves the probe
// unchanged, so it shows in the corrected times in full.
//
// Output: one "detail" JSON line (host fingerprint, digest, per-repetition
// raw samples and slowdowns) and, last, the result line
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} whose
// metrics are medians over the (traced) repetitions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "obs/trace.h"

#ifndef ATCBENCH_TRACED
#define ATCBENCH_TRACED 0
#endif

#if ATCBENCH_TRACED
// Allocation counting for the traced binary only: one relaxed atomic per
// allocation would tax the untraced timings, so atcbench keeps the
// library's operator new.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_count_allocs{false};  ///< set during traced repetitions
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using namespace atcsim;
using namespace sim::time_literals;
using Clock = std::chrono::steady_clock;

constexpr bool kTraced = ATCBENCH_TRACED != 0;

/// The host probe's time on an idle core of the reference host.
constexpr double kProbeIdleS = 3.0e-4;
/// How the simulator's times scale with the probe's on a busy host, in log
/// terms; measured on the reference host (README.md).
constexpr double kSlowdownExponent = 0.75;

struct Workload {
  std::string_view name;
  bool mixed;  ///< build_mixed() cell; otherwise the type-A lu.B grid
  int nodes;
  cluster::Approach approach;
  int shards;
  std::uint64_t default_seed;
  sim::SimTime warmup;
  sim::SimTime measure;
  sim::SimTime step;  ///< run_for() granularity; the probe runs between steps
  const char* vc_prefix;  ///< app keys of the virtual clusters
  /// The measured window is long enough for every virtual cluster to
  /// finish a superstep; otherwise every shard must at least advance.
  bool vc_supersteps;
  bool expect_migrations;
  /// Setups and teardowns timed per repetition: all but the last Scenario
  /// are destroyed unrun.  Extra cycles cost ~25 ms at 512 nodes and give
  /// those workloads' millisecond-scale setup_s and teardown_s a steady
  /// median; at 16384 nodes one cycle costs a second and is steady alone.
  int setup_cycles;
};

// Windows (README.md has the measurements behind them): lu512 measures
// ATC's descent from 15 ms to sub-millisecond slices, which ends past the
// ~1.5 s convergence point; the mixed cell covers the rebalancer's first
// moves; the 16384-node point covers the start-up of every PCPU, the same
// work for every seed, where construction and teardown dominate
// and no 131072-rank superstep can end.
constexpr Workload kWorkloads[] = {
    {"lu512_atc_s1", false, 512, cluster::Approach::kATC, 1, 7, 1_s, 800_ms,
     100_ms, "lu.B/vc", true, false, 10},
    {"mixed512_atcpm_s4", true, 512, cluster::Approach::kATCPM, 4, 97, 1_s,
     1_s, 100_ms, "VC", true, true, 10},
    {"lu16k_atc_s8", false, 16384, cluster::Approach::kATC, 8, 7, 1_ms, 2_ms,
     1_ms, "lu.B/vc", false, false, 1},
};

// The timed binary runs the shards on one worker thread: with two, a
// co-tenant preempting either thread stalls the round barrier, and run
// medians spread 52-65 % across runs instead of 8 % (README.md).  The
// traced binary, whose figures carry no bound, runs two, so the worker
// pool and the round barrier are still exercised and observed.
constexpr std::size_t kShardThreads = kTraced ? 2 : 1;

/// The simulated outcome of one repetition; equal across repetitions,
/// thread counts and the traced/untraced binaries.
struct Digest {
  std::uint64_t events = 0;          ///< events executed, warm-up + measure
  std::uint64_t supersteps = 0;      ///< supersteps recorded while measuring
  std::uint64_t superstep_bits = 0;  ///< mean_superstep_with_prefix, as bits
  std::uint64_t migrations = 0;      ///< live migrations started
  bool operator==(const Digest&) const = default;
};

/// Per-layer metrics of the traced binary, in report order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"cluster.build_s", "s"},
    {"cluster.populate_s", "s"},
    {"cluster.start_s", "s"},
    {"cluster.teardown_s", "s"},
    {"cluster.vms", "count"},
    {"cluster.vcpus", "count"},
    {"cluster.minor_faults", "count"},
    {"simcore.events", "count"},
    {"simcore.ns_per_event", "ns"},
    {"simcore.queue_slots", "count"},
    {"pdes.rounds", "count"},
    {"pdes.events_per_round", "count"},
    {"pdes.horizon_extensions", "count"},
    {"pdes.critical_s", "s"},
    {"pdes.serial_s", "s"},
    {"pdes.barrier_wait_s", "s"},
    {"pdes.fabric_posted", "count"},
    {"pdes.bound_recomputes", "count"},
    {"pdes.bound_hit_ratio", "ratio"},
    {"virt.dispatches", "count"},
    {"virt.switches", "count"},
    {"virt.ns_per_dispatch", "ns"},
    {"sched.ctx_switches", "count"},
    {"net.io_events", "count"},
    {"net.packet_slots", "count"},
    {"sync.periods", "count"},
    {"atc.mean_slice_ms", "ms"},
    {"cache.llc_miss_rate", "1/s"},
    {"control.migrations_started", "count"},
    {"control.rebalancer_orders", "count"},
    {"workload.supersteps", "count"},
    {"workload.superstep_ms", "ms"},
    {"workload.spin_latency_us", "us"},
    {"proc.cpu_s", "s"},
    {"proc.invol_cs", "count"},
    {"proc.allocs_per_event", "ratio"},
    {"proc.host_slowdown", "ratio"},
};

struct Rep {
  bool traced = false;
  // Raw wall times; the reported ones are corrected for host speed.
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double probe_s = 0;   ///< mean host-probe time over the repetition
  double slowdown = 1;  ///< probe_s / kProbeIdleS
  double cpu_s = 0;
  double invol_cs = 0;
  Digest digest;
  std::map<std::string, double> layers;  ///< traced repetitions only
};

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  ///< index into the span list; -1 for a repetition's root
  int run;     ///< repetition index
};

/// In-memory span log, written once at exit (traced repetitions only).
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int parent, int run) {
    spans_.push_back({name, now(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  bool write(const std::string& path) const;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %s, "
                 "\"end_s\": %s, \"parent\": %d, \"run\": %d}%s\n",
                 i, s.name, num(s.start_s).c_str(), num(s.end_s).c_str(),
                 s.parent, s.run, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

struct Usage {
  double cpu_s = 0;
  double invol_cs = 0;
  double minor_faults = 0;
  double max_rss_kib = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_nivcsw),
          static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_maxrss)};
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A fixed amount of register-only integer work, timed between the
/// simulator calls.  It touches no memory, so it leaves the simulator's
/// caches alone, and it shares no code with the simulator, so only the host
/// changes its time: kProbeIdleS on an idle core of the reference host
/// (README.md), about twice that while a co-tenant keeps the core busy.
class HostProbe {
 public:
  void sample() {
    const auto t0 = Clock::now();
    std::uint64_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (std::uint64_t i = 0; i < 100000; ++i) {
      for (std::uint64_t& v : h) {
        v = (v ^ (v >> 29)) * 0xbf58476d1ce4e5b9ull + i;
      }
    }
    for (std::uint64_t v : h) sink_ = sink_ ^ v;
    sum_ += seconds_since(t0);
    ++count_;
  }
  /// Mean probe time since the last call.
  double take_mean() {
    const double mean = count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
    sum_ = 0;
    count_ = 0;
    return mean;
  }

 private:
  double sum_ = 0;
  int count_ = 0;
  volatile std::uint64_t sink_ = 0;  ///< keeps the work from being elided
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, int rep, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "atcbench: repetition %d failed check: %s\n", rep,
                 what);
  }
};

/// Counters that accumulate from start(); sampled before the measured
/// run_for so the layer metrics cover the measured window only.
struct Cumulative {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  sim::ShardGroup::Stats pdes;
  std::uint64_t posted = 0;
  std::uint64_t allocs = 0;
};

Cumulative cumulative(cluster::Scenario& s) {
  Cumulative c;
  c.events = s.events_executed();
  for (int k = 0; k < s.shard_count(); ++k) {
    c.switches += s.platform(k).engine().total_switches();
  }
  if (const sim::ShardGroup* g = s.shard_group()) c.pdes = g->stats();
  if (const net::ShardFabric* f = s.fabric()) c.posted = f->posted();
#if ATCBENCH_TRACED
  c.allocs = g_allocs.load(std::memory_order_relaxed);
#endif
  return c;
}

/// Reads every layer counter of the finished measured window.
void read_layers(cluster::Scenario& s, const Workload& w,
                 const Cumulative& before, double measure_s,
                 std::map<std::string, double>& out) {
  const Cumulative after = cumulative(s);
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double events = d(after.events, before.events);

  double vms = 0, vcpus = 0, queue_slots = 0, packet_slots = 0;
  double dispatches = 0, ctx = 0, io = 0, migrations = 0;
  double slice_ms = 0, parallel_vms = 0;
  for (int k = 0; k < s.shard_count(); ++k) {
    virt::Platform& p = s.platform(k);
    queue_slots += static_cast<double>(s.simulation(k).queue().slot_count());
    packet_slots += static_cast<double>(s.network(k).packet_slots());
    migrations += static_cast<double>(s.migrator(k).migrations_started());
    for (std::size_t id = 0; id < p.vm_count(); ++id) {
      const virt::Vm* vm =
          p.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm == nullptr) continue;  // migrated away
      ++vms;
      vcpus += static_cast<double>(vm->vcpu_count());
      ctx += static_cast<double>(vm->totals().ctx_switches);
      io += static_cast<double>(vm->totals().io_events);
      for (const auto& v : vm->vcpus()) {
        dispatches += static_cast<double>(v->totals().dispatches);
      }
      if (vm->is_parallel()) {
        slice_ms += sim::to_millis(vm->time_slice());
        ++parallel_vms;
      }
    }
  }
  double supersteps = 0;
  for (const std::string& key : s.bsp_keys()) {
    supersteps += static_cast<double>(
        s.metrics().durations(key + "/superstep").count());
  }
  const double rounds = d(after.pdes.rounds, before.pdes.rounds);
  const double recomputes =
      d(after.pdes.bound_recomputes, before.pdes.bound_recomputes);
  const double hits =
      d(after.pdes.bound_cache_hits, before.pdes.bound_cache_hits);
  const cluster::control::ClusterRebalancer* rebalancer =
      s.approach_runtime().rebalancer.get();

  out["cluster.vms"] = vms;
  out["cluster.vcpus"] = vcpus;
  out["simcore.events"] = events;
  out["simcore.ns_per_event"] = events > 0 ? measure_s * 1e9 / events : 0;
  out["simcore.queue_slots"] = queue_slots;
  out["pdes.rounds"] = rounds;
  out["pdes.events_per_round"] = rounds > 0 ? events / rounds : 0;
  out["pdes.horizon_extensions"] =
      d(after.pdes.horizon_extensions, before.pdes.horizon_extensions);
  out["pdes.critical_s"] = after.pdes.critical_s - before.pdes.critical_s;
  out["pdes.serial_s"] = after.pdes.serial_s - before.pdes.serial_s;
  out["pdes.barrier_wait_s"] =
      after.pdes.barrier_wait_s - before.pdes.barrier_wait_s;
  out["pdes.fabric_posted"] = d(after.posted, before.posted);
  out["pdes.bound_recomputes"] = recomputes;
  out["pdes.bound_hit_ratio"] =
      recomputes + hits > 0 ? hits / (recomputes + hits) : 0;
  out["virt.dispatches"] = dispatches;
  out["virt.switches"] = d(after.switches, before.switches);
  out["virt.ns_per_dispatch"] =
      dispatches > 0 ? measure_s * 1e9 / dispatches : 0;
  out["sched.ctx_switches"] = ctx;
  out["net.io_events"] = io;
  out["net.packet_slots"] = packet_slots;
  out["sync.periods"] = static_cast<double>(s.monitor().periods_elapsed());
  out["atc.mean_slice_ms"] = parallel_vms > 0 ? slice_ms / parallel_vms : 0;
  out["cache.llc_miss_rate"] = s.llc_miss_rate();
  out["control.migrations_started"] = migrations;
  out["control.rebalancer_orders"] =
      rebalancer != nullptr
          ? static_cast<double>(rebalancer->migrations_ordered())
          : 0;
  out["workload.supersteps"] = supersteps;
  out["workload.superstep_ms"] =
      s.mean_superstep_with_prefix(w.vc_prefix) * 1e3;
  out["workload.spin_latency_us"] = s.avg_parallel_spin_latency() * 1e6;
  out["proc.allocs_per_event"] =
      events > 0 ? d(after.allocs, before.allocs) / events : 0;
}

bool every_vc_stepped(cluster::Scenario& s, const char* vc_prefix) {
  int vcs = 0;
  for (const std::string& key : s.bsp_keys()) {
    if (key.rfind(vc_prefix, 0) != 0) continue;
    ++vcs;
    if (s.metrics().durations(key + "/superstep").count() == 0) return false;
  }
  return vcs > 0;
}

std::vector<std::uint64_t> shard_events(cluster::Scenario& s) {
  std::vector<std::uint64_t> events;
  for (int k = 0; k < s.shard_count(); ++k) {
    events.push_back(s.simulation(k).events_executed());
  }
  return events;
}

/// One repetition; traced when `spans` is given.
Rep run_rep(const Workload& w, std::uint64_t seed, int rep, Spans* spans,
            HostProbe& probe, Tally& tally) {
  Rep r;
  r.traced = spans != nullptr;
#if ATCBENCH_TRACED
  g_count_allocs.store(r.traced, std::memory_order_relaxed);
#endif
  const int root = spans != nullptr ? spans->open("rep", -1, rep) : -1;
  // Times one call into the simulator; the traced binary also records it
  // as a span under this repetition's root.
  const auto timed = [&](const char* name, auto&& call) {
    const int id = spans != nullptr ? spans->open(name, root, rep) : -1;
    const auto t0 = Clock::now();
    call();
    const double s = seconds_since(t0);
    if (spans != nullptr) spans->close(id);
    return s;
  };

  // --- setup: build + populate + start ---------------------------------
  std::unique_ptr<cluster::Scenario> s;
  double build_s = 0, populate_s = 0, start_s = 0;
  const auto set_up = [&] {
    build_s = timed("cluster.build", [&] {
      s = cluster::ScenarioBuilder{}
              .nodes(w.nodes)
              .approach(w.approach)
              .seed(seed)
              .shards(w.shards)
              .shard_threads(kShardThreads)
              .build();
    });
    populate_s = timed("cluster.populate", [&] {
      if (w.mixed) {
        cluster::build_mixed(*s);
      } else {
        cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
      }
    });
    start_s = timed("cluster.start", [&] { s->start(); });
    return build_s + populate_s + start_s;
  };
  std::vector<double> setups, teardowns;
  for (int c = 1; c < w.setup_cycles; ++c) {
    setups.push_back(set_up());
    probe.sample();
    teardowns.push_back(timed("cluster.teardown", [&] { s.reset(); }));
    probe.sample();
  }
  const Usage u0 = usage();
  setups.push_back(set_up());
  r.setup_s = median(setups);
  const Usage u1 = usage();
  probe.sample();

  // --- timed run: warm-up, reset, measure ------------------------------
  // Advances `span` in steps of w.step, timing only the run_for() calls.
  const auto run_steps = [&](sim::SimTime span) {
    double run_s = 0;
    for (sim::SimTime done = 0; done < span; done += w.step) {
      const auto t0 = Clock::now();
      s->run_for(std::min(w.step, span - done));
      run_s += seconds_since(t0);
      probe.sample();
    }
    return run_s;
  };
  double warmup_s = 0, measure_s = 0;
  timed("run.warmup", [&] { warmup_s = run_steps(w.warmup); });
  r.run_s = warmup_s + timed("run.reset", [&] {
    s->metrics().reset_all();
    s->reset_platform_stats();
  });
  const std::vector<std::uint64_t> before_measure = shard_events(*s);
  Cumulative before;
  if (r.traced) before = cumulative(*s);
  timed("run.measure", [&] { measure_s = run_steps(w.measure); });
  r.run_s += measure_s;
  const Usage u2 = usage();
  r.cpu_s = u2.cpu_s - u1.cpu_s;
  r.invol_cs = u2.invol_cs - u1.invol_cs;

  // --- outputs ----------------------------------------------------------
  r.digest.events = s->events_executed();
  for (const std::string& key : s->bsp_keys()) {
    r.digest.supersteps += s->metrics().durations(key + "/superstep").count();
  }
  r.digest.superstep_bits =
      std::bit_cast<std::uint64_t>(s->mean_superstep_with_prefix(w.vc_prefix));
  for (int k = 0; k < s->shard_count(); ++k) {
    r.digest.migrations += s->migrator(k).migrations_started();
  }
  tally.check(r.digest.events > 0, rep, "events executed > 0");
  if (w.vc_supersteps) {
    tally.check(every_vc_stepped(*s, w.vc_prefix), rep,
                "every virtual cluster completed a superstep while measuring");
  } else {
    const std::vector<std::uint64_t> after = shard_events(*s);
    bool every_shard_ran = true;
    for (std::size_t k = 0; k < after.size(); ++k) {
      if (after[k] == before_measure[k]) every_shard_ran = false;
    }
    tally.check(every_shard_ran, rep,
                "every shard executed events while measuring");
  }
  if (w.expect_migrations) {
    tally.check(r.digest.migrations > 0, rep, "a live migration started");
  }
  if (r.traced) {
    timed("layers.read",
          [&] { read_layers(*s, w, before, measure_s, r.layers); });
    r.layers["cluster.build_s"] = build_s;
    r.layers["cluster.populate_s"] = populate_s;
    r.layers["cluster.start_s"] = start_s;
    r.layers["cluster.minor_faults"] = u1.minor_faults - u0.minor_faults;
    r.layers["proc.cpu_s"] = r.cpu_s;
    r.layers["proc.invol_cs"] = r.invol_cs;
  }

  // --- teardown ---------------------------------------------------------
  teardowns.push_back(timed("cluster.teardown", [&] { s.reset(); }));
  probe.sample();
  r.teardown_s = median(teardowns);
  r.probe_s = probe.take_mean();
  if (r.traced) r.layers["cluster.teardown_s"] = teardowns.back();
  if (spans != nullptr) spans->close(root);
  return r;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string m(brand);
    m.erase(0, m.find_first_not_of(' '));
    m.erase(std::remove(m.begin(), m.end(), '"'), m.end());
    return m;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_json(const std::string& revision) {
  std::string j = "{\"nproc\": " +
                  std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                  ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  j += ", \"l2_bytes\": " + std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE));
  j += ", \"l3_bytes\": " + std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE));
  j += ", \"build_type\": \"" ATCBENCH_BUILD_TYPE "\"";
  j += std::string(", \"trace_compiled_in\": ") +
       (ATCSIM_TRACE_ENABLED ? "true" : "false");
  j += ", \"revision\": \"" + json_escape(revision) + "\"}";
  return j;
}

std::string digest_json(const Digest& d) {
  return "{\"events\": " + std::to_string(d.events) +
         ", \"supersteps\": " + std::to_string(d.supersteps) +
         ", \"superstep_bits\": " + std::to_string(d.superstep_bits) +
         ", \"migrations\": " + std::to_string(d.migrations) + "}";
}

std::string list_json(const std::vector<double>& v) {
  std::string j = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    j += (i > 0 ? ", " : "") + num(v[i]);
  }
  return j + "]";
}

std::string samples_json(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.*field);
  return list_json(v);
}

std::string metric_json(const char* name, double value, const char* unit) {
  return std::string("\"") + name + "\": {\"value\": " + num(value) +
         ", \"unit\": \"" + unit + "\"}";
}

[[noreturn]] void usage_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--revision STR] [--spans PATH] [--perturb-digest]\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  std::string revision = "unknown";
  std::string spans_path;
  bool perturb = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      for (const Workload& cand : kWorkloads) {
        if (cand.name == name) w = &cand;
      }
      if (w == nullptr) usage_exit(argv[0]);
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_given = true;
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--revision" && has_value) {
      revision = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (a == "--perturb-digest") {
      perturb = true;  // self-test: the digest check must trip
    } else {
      usage_exit(argv[0]);
    }
  }
  if (w == nullptr || seconds <= 0) usage_exit(argv[0]);
  if (!seed_given) seed = w->default_seed;

  const auto origin = Clock::now();
  Spans spans(origin);
  HostProbe probe;
  Tally tally;
  std::vector<Rep> reps;
  for (;;) {
    const int n = static_cast<int>(reps.size());
    if (n >= 3) {
      // Start another repetition only if it fits in the remaining time.
      const double rep_s = seconds_since(origin) / n;
      if (seconds_since(origin) + rep_s > seconds) break;
    }
    const bool traced = kTraced && n % 2 == 1;
    Rep r = run_rep(*w, seed, n, traced ? &spans : nullptr, probe, tally);
    if (perturb && n == 1) r.digest.events ^= 1;
    if (n > 0) {
      tally.check(r.digest == reps.front().digest, n,
                  "simulated digest equals the first repetition's");
    }
    reps.push_back(std::move(r));
  }

  if (kTraced && !spans_path.empty() && !spans.write(spans_path)) {
    std::fprintf(stderr, "atcbench: cannot write spans to %s\n",
                 spans_path.c_str());
    tally.check(false, -1, "span log written");
  }

  // Host-speed correction (see the top of the file).
  std::vector<double> run_s, setup_s, teardown_s;
  for (Rep& r : reps) {
    r.slowdown = r.probe_s / kProbeIdleS;
    const double f = std::pow(r.slowdown, kSlowdownExponent);
    run_s.push_back(r.run_s / f);
    setup_s.push_back(r.setup_s / f);
    teardown_s.push_back(r.teardown_s / f);
    if (r.traced) r.layers["proc.host_slowdown"] = r.slowdown;
  }

  // Tracing overhead: each traced repetition's run time minus the mean of
  // its untraced neighbours, which cancels host-speed drift between them.
  std::vector<double> overhead;
  for (std::size_t i = 1; i < reps.size(); i += 2) {
    double base = run_s[i - 1];
    if (i + 1 < reps.size()) base = 0.5 * (base + run_s[i + 1]);
    if (reps[i].traced) overhead.push_back(run_s[i] - base);
  }

  std::printf("{\"detail\": {\"workload\": \"%.*s\", \"seed\": %llu, "
              "\"traced\": %s, \"shard_threads\": %zu, \"reps\": %zu, "
              "\"host\": %s, \"digest\": %s, \"raw_run_s\": %s, "
              "\"raw_setup_s\": %s, \"raw_teardown_s\": %s, "
              "\"host_slowdown\": %s, "
              "\"proc.cpu_s\": %s, \"proc.invol_cs\": %s, "
              "\"proc.trace_overhead_s\": %s}}\n",
              static_cast<int>(w->name.size()), w->name.data(),
              static_cast<unsigned long long>(seed),
              kTraced ? "true" : "false", kShardThreads, reps.size(),
              host_json(revision).c_str(),
              digest_json(reps.front().digest).c_str(),
              samples_json(reps, &Rep::run_s).c_str(),
              samples_json(reps, &Rep::setup_s).c_str(),
              samples_json(reps, &Rep::teardown_s).c_str(),
              samples_json(reps, &Rep::slowdown).c_str(),
              samples_json(reps, &Rep::cpu_s).c_str(),
              samples_json(reps, &Rep::invol_cs).c_str(),
              list_json(overhead).c_str());

  std::string metrics;
  if (kTraced) {
    for (const auto& [name, unit] : kLayerMetrics) {
      std::vector<double> v;
      for (const Rep& r : reps) {
        if (r.traced) v.push_back(r.layers.at(name));
      }
      metrics += (metrics.empty() ? "" : ", ") +
                 metric_json(name, median(std::move(v)), unit);
    }
    metrics += ", " + metric_json("proc.trace_overhead_s",
                                  median(std::move(overhead)), "s");
  } else {
    metrics = metric_json("run_s", median(run_s), "s") + ", " +
              metric_json("setup_s", median(setup_s), "s") + ", " +
              metric_json("teardown_s", median(teardown_s), "s") + ", " +
              metric_json("peak_rss_mb", usage().max_rss_kib * 1024 / 1e6,
                          "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return 0;
}
