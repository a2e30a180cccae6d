#include "cluster/scenario.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace atcsim::cluster {

using sim::SimTime;

/// Shard-local executor: one Simulation + fabric port, run by the
/// ShardGroup's round protocol.
class Scenario::ShardExec final : public sim::ShardExecutor {
 public:
  ShardExec(sim::Simulation& simulation, net::ShardFabric& fabric,
            net::VirtualNetwork& network, sim::SimTime out_slack, int id)
      : sim_(&simulation),
        fabric_(&fabric),
        net_(&network),
        out_slack_(out_slack),
        id_(id) {}

  int shard_id() const override { return id_; }
  sim::SimTime next_event_time() const override {
    return sim_->next_event_time();
  }
  sim::SimTime earliest_output_time() const override {
    // Every cross-shard post happens inside a dom0 netback tx job, and that
    // job exists only because guest code sent a packet.  Three regimes:
    //   * a remote send is already in flight (job queued or computing): its
    //     post can land while any pending event runs — next_event_time is
    //     the only safe bound;
    //   * local packets or disk requests are in flight: their completions
    //     deposit mail that re-enters guest code at events the engine's
    //     timer list never sees, so the next event is the only safe floor;
    //   * the shard is quiescent on the I/O side: the engine's
    //     earliest_effect_time lower-bounds the next *network act* — each
    //     VCPU's remaining compute plus its workload's declared distance to
    //     its next send (an LU rank mid-superstep is whole compute segments
    //     away from its barrier message; loop guests never send at all).
    // A fresh post then still needs the dom0 tx job, which consumes at
    // least dom0_packet_cost of CPU — the slack that lets neighbours run
    // far past this shard's purely local timers and compute phases.
    const sim::SimTime next = sim_->next_event_time();
    if (next == sim::kTimeNever) return sim::kTimeNever;
    if (net_->pending_remote_tx() > 0) return next;
    sim::SimTime entry = next;
    if (net_->packets_in_flight() == 0) {
      entry = std::max(entry, net_->engine().earliest_effect_time());
    }
    if (entry == sim::kTimeNever) return sim::kTimeNever;
    return entry + out_slack_;
  }
  sim::SimTime pending_inbound_time() const override {
    return fabric_->pending_due(id_);
  }
  void deliver_inbound(sim::SimTime watermark) override {
    fabric_->deliver_to(id_, watermark);
  }
  BoundCounters bound_counters() const override {
    const auto& bs = net_->engine().bound_stats();
    return {bs.recomputes, bs.cache_hits};
  }

  std::uint64_t advance_to(sim::SimTime horizon) override {
    // Interleave execution with sealed-packet delivery: a packet due at d
    // is handed to the network only once every local event at or before d
    // has run, so the event-queue interleaving at each timestamp — and
    // with it the merged trace — is a pure function of the simulation
    // state, not of how early a round's horizon made the packet
    // deliverable.  (Delivering everything up front at the phase start
    // would insert packet arrivals ahead of same-due local events in some
    // round structures and behind them in others.)
    std::uint64_t n = 0;
    for (;;) {
      const sim::SimTime due = fabric_->ready_due(id_);
      if (due > horizon) break;
      n += sim_->run_until(due);
      fabric_->deliver_to(id_, due);
    }
    return n + sim_->run_until(horizon);
  }

 private:
  sim::Simulation* sim_;
  net::ShardFabric* fabric_;
  net::VirtualNetwork* net_;
  sim::SimTime out_slack_;
  int id_;
};

Scenario::Scenario(ScenarioConfig config) : config_(config) {
  const int shards = config_.shards;
  if (shards > 1) {
    // Scheduling randomness must be a function of the global node id, or
    // the shard map would leak into every dispatch decision.
    config_.params.per_node_streams = true;
  }
  app_rng_ = sim::Rng(config_.seed);

  // Contiguous balanced node blocks: shard k owns base + (k < rem ? 1 : 0)
  // nodes starting at k * base + min(k, rem).
  const int base = config_.nodes / shards;
  const int rem = config_.nodes % shards;
  int first = 0;
  stacks_.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    auto stack = std::make_unique<ShardStack>();
    stack->first_node = first;
    stack->node_count = base + (k < rem ? 1 : 0);
    virt::PlatformConfig pc;
    pc.nodes = stack->node_count;
    pc.pcpus_per_node = config_.pcpus_per_node;
    pc.params = config_.params;
    pc.seed = config_.seed;
    pc.node_id_offset = first;
    stack->platform =
        std::make_unique<virt::Platform>(stack->simulation, pc);
    // Unsharded runs never query the effect bound (run_for takes the
    // legacy single-simulation path), so its bookkeeping is pure overhead
    // on the timer hot path — gate the index off entirely unless a test
    // forces it on to query the bound directly.
    virt::Engine& eng = stack->platform->engine();
    if (shards == 1 && !config_.force_effect_tracking) {
      eng.set_effect_tracking(false);
    }
    eng.set_reference_bound(config_.reference_effect_bound);
    eng.set_differential_check(config_.effect_differential_check);
    stack->network = std::make_unique<net::VirtualNetwork>(*stack->platform);
    stack->network->attach();
    stack->monitor = std::make_unique<sync::PeriodMonitor>(*stack->platform);
    first += stack->node_count;
    stacks_.push_back(std::move(stack));
  }
  metrics_ =
      std::make_unique<metrics::MetricsRegistry>(stacks_[0]->simulation);

  if (shards > 1) {
    fabric_ = std::make_unique<net::ShardFabric>(
        shards, config_.params.pdes_mailbox_slots);
    for (int k = 0; k < shards; ++k) {
      fabric_->bind(k, *stacks_[static_cast<std::size_t>(k)]->network);
    }
  }

  // Cluster control plane: every shard carries a full directory replica and
  // a migration manager.  Unsharded runs get them too (the directory is
  // behaviorally inert for static VMs, and scripted migrations then work at
  // any shard count).
  std::vector<std::int32_t> node_shard;
  node_shard.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    node_shard.push_back(static_cast<std::int32_t>(shard_of_node(n)));
  }
  for (int k = 0; k < shards; ++k) {
    auto& stack = *stacks_[static_cast<std::size_t>(k)];
    stack.directory = std::make_unique<virt::LocationDirectory>();
    stack.network->set_directory(stack.directory.get());
    control::Migrator::Context mc;
    mc.platform = stack.platform.get();
    mc.network = stack.network.get();
    mc.directory = stack.directory.get();
    mc.fabric = fabric_.get();
    mc.shard = k;
    mc.total_shards = shards;
    mc.node_shard = node_shard;
    stack.migrator = std::make_unique<control::Migrator>(std::move(mc));
    stack.migrator->install();
  }
}

Scenario::~Scenario() = default;

int Scenario::shard_of_node(int node) const {
  assert(node >= 0 && node < config_.nodes);
  const int shards = config_.shards;
  const int base = config_.nodes / shards;
  const int rem = config_.nodes % shards;
  // First `rem` shards have base+1 nodes; invert the block layout.
  const int big_span = (base + 1) * rem;
  if (node < big_span) return node / (base + 1);
  return rem + (node - big_span) / base;
}

virt::Platform& Scenario::platform_of_node(int node) {
  return *stacks_[static_cast<std::size_t>(shard_of_node(node))]->platform;
}

virt::NodeId Scenario::local_node_id(int node) const {
  const auto& stack = *stacks_[static_cast<std::size_t>(shard_of_node(node))];
  return virt::NodeId{node - stack.first_node};
}

sim::Rng& Scenario::app_rng() {
  // At shards = 1 the platform stream must keep advancing through these
  // splits exactly as it always has (the scheduler's attach-time split
  // consumes its state later); sharded runs use a scenario-owned stream
  // that produces the identical split sequence, since nothing else draws
  // from either stream during construction.
  return config_.shards == 1 ? stacks_[0]->platform->rng() : app_rng_;
}

net::VirtualNetwork& Scenario::net_of(virt::Vm& vm) {
  net::VirtualNetwork* net = vm.node().platform().network();
  assert(net != nullptr);
  return *net;
}

void Scenario::register_vm(virt::Vm& vm, int node) {
  const std::int64_t gid = next_gid_++;
  vm.set_global_id(gid);
  const auto shard = static_cast<std::int32_t>(shard_of_node(node));
  for (auto& stack : stacks_) {
    stack->directory->register_vm(gid, shard, node);
  }
}

std::vector<virt::Vm*> Scenario::create_cluster_vms(
    const std::string& name, const std::vector<int>& node_for_vm) {
  std::vector<virt::Vm*> vms;
  vms.reserve(node_for_vm.size());
  for (std::size_t i = 0; i < node_for_vm.size(); ++i) {
    virt::Vm& vm = platform_of_node(node_for_vm[i]).create_vm(
        local_node_id(node_for_vm[i]), virt::VmType::kParallel,
        name + "-vm" + std::to_string(i), config_.vcpus_per_vm);
    // Parallel VMs are network-driven: vSlicer's admin marks them LS.
    vm.set_latency_sensitive(true);
    register_vm(vm, node_for_vm[i]);
    vms.push_back(&vm);
  }
  return vms;
}

workload::BspApp& Scenario::add_bsp_app(const std::string& key,
                                        const workload::Descriptor& desc,
                                        std::vector<virt::Vm*> vms) {
  assert(!started_);
  auto& superstep = metrics_->durations(key + "/superstep");
  auto& iteration = metrics_->durations(key + "/iteration");
  bsp_apps_.push_back(std::make_unique<workload::BspApp>(
      std::move(vms), desc, app_rng().split(std::hash<std::string>{}(key)),
      &superstep, &iteration));
  bsp_apps_.back()->attach();
  bsp_keys_.push_back(key);
  return *bsp_apps_.back();
}

void Scenario::add_identical_clusters(const workload::Descriptor& desc) {
  if (desc.parallel()) {
    for (int j = 0; j < config_.vms_per_node; ++j) {
      std::vector<int> placement;
      for (int n = 0; n < config_.nodes; ++n) placement.push_back(n);
      auto vms = create_cluster_vms(desc.name + "-vc" + std::to_string(j),
                                    placement);
      add_bsp_app(desc.name + "/vc" + std::to_string(j), desc,
                  std::move(vms));
    }
    return;
  }
  // Loop descriptors have no cross-VM coupling: fill the same VM slots with
  // independent single-VCPU interpreters instead.
  for (int j = 0; j < config_.vms_per_node; ++j) {
    for (int n = 0; n < config_.nodes; ++n) {
      add_loop_vm(n, desc,
                  desc.name + "/vc" + std::to_string(j) + "/n" +
                      std::to_string(n));
    }
  }
}

virt::Vm& Scenario::add_loop_vm(int node, workload::Descriptor desc,
                                const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, key,
      config_.vcpus_per_vm);
  register_vm(vm, node);
  workloads_.push_back(std::make_unique<workload::LoopWorkload>(
      net_of(vm), vm, std::move(desc),
      app_rng().split(std::hash<std::string>{}(key)), &metrics_->rate(key)));
  vm.vcpus()[0].set_workload(workloads_.back().get());
  return vm;
}

virt::Vm& Scenario::add_disk_vm(int node, const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, key,
      config_.vcpus_per_vm);
  register_vm(vm, node);
  workloads_.push_back(std::make_unique<workload::DiskWorkload>(
      net_of(vm), vm, workload::DiskWorkload::Config{},
      &metrics_->rate(key)));
  vm.vcpus()[0].set_workload(workloads_.back().get());
  return vm;
}

virt::Vm& Scenario::add_ping_pair(int node_a, int node_b,
                                  const std::string& key) {
  assert(!started_);
  virt::Vm& pinger = platform_of_node(node_a).create_vm(
      local_node_id(node_a), virt::VmType::kNonParallel, key,
      config_.vcpus_per_vm);
  virt::Vm& peer = platform_of_node(node_b).create_vm(
      local_node_id(node_b), virt::VmType::kNonParallel, key + "-peer",
      config_.vcpus_per_vm);
  pinger.set_latency_sensitive(true);
  peer.set_latency_sensitive(true);
  register_vm(pinger, node_a);
  register_vm(peer, node_b);
  workloads_.push_back(std::make_unique<workload::PingWorkload>(
      net_of(pinger), pinger, peer, workload::PingWorkload::Config{},
      &metrics_->latency(key)));
  pinger.vcpus()[0].set_workload(workloads_.back().get());
  workloads_.push_back(std::make_unique<workload::IdleServerWorkload>(
      peer.node().platform().engine()));
  peer.vcpus()[0].set_workload(workloads_.back().get());
  return pinger;
}

virt::Vm& Scenario::add_web_vm(int node, double requests_per_second,
                               const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, key,
      config_.vcpus_per_vm);
  vm.set_latency_sensitive(true);
  register_vm(vm, node);
  auto server = std::make_unique<workload::WebServerWorkload>(
      net_of(vm), vm, workload::WebServerWorkload::Config{},
      &metrics_->latency(key),
      app_rng().split(std::hash<std::string>{}(key)));
  vm.vcpus()[0].set_workload(server.get());
  workload::HttperfClient::Config cc;
  cc.rate_per_second = requests_per_second;
  clients_.push_back(std::make_unique<workload::HttperfClient>(
      net_of(vm), vm, *server, cc,
      app_rng().split(std::hash<std::string>{}(key + "/client"))));
  workloads_.push_back(std::move(server));
  return vm;
}

obs::TraceSink& Scenario::enable_tracing(obs::TraceConfig cfg) {
  for (auto& stack : stacks_) {
    if (stack->trace_sink == nullptr) {
      stack->trace_sink = std::make_unique<obs::TraceSink>(cfg);
      stack->simulation.set_trace(stack->trace_sink.get());
    }
  }
  return *stacks_[0]->trace_sink;
}

obs::InvariantChecker& Scenario::enable_invariants() {
  enable_tracing();
  obs::InvariantLimits limits;
  limits.min_slice = config_.params.min_time_slice;
  limits.slice_jitter = config_.params.slice_jitter;
  limits.credit_clip = config_.params.credit_clip;
  for (auto& stack : stacks_) {
    if (stack->invariants == nullptr) {
      stack->invariants = std::make_unique<obs::InvariantChecker>(
          *stack->trace_sink, limits);
    }
  }
  return *stacks_[0]->invariants;
}

std::vector<const obs::TraceSink*> Scenario::trace_sinks() const {
  std::vector<const obs::TraceSink*> sinks;
  for (const auto& stack : stacks_) {
    if (stack->trace_sink != nullptr) sinks.push_back(stack->trace_sink.get());
  }
  return sinks;
}

void Scenario::start() {
  assert(!started_);
  started_ = true;
  for (auto& stack : stacks_) {
    stack->runtime = install_approach(*stack->platform, *stack->monitor,
                                      config_.approach, config_.atc);
    if (stack->runtime.sampler != nullptr) {
      // kPM / kATCPM: attach the contention-aware rebalancer now that the
      // migration context exists.  Policy is cell-local — each shard
      // balances its own node block.
      stack->runtime.rebalancer = std::make_unique<control::ClusterRebalancer>(
          *stack->platform, *stack->monitor, *stack->runtime.sampler,
          *stack->migrator);
    }
    stack->monitor->start();
  }
  for (auto& client : clients_) client->start();
  for (auto& stack : stacks_) stack->platform->engine().start();

  if (config_.shards > 1) {
    executors_.reserve(stacks_.size());
    std::vector<sim::ShardExecutor*> execs;
    for (std::size_t k = 0; k < stacks_.size(); ++k) {
      executors_.push_back(std::make_unique<ShardExec>(
          stacks_[k]->simulation, *fabric_, *stacks_[k]->network,
          config_.params.dom0_packet_cost, static_cast<int>(k)));
      execs.push_back(executors_.back().get());
    }
    sim::ShardGroup::Options opts;
    // Every cross-shard packet pays at least one wire latency after its
    // source-NIC completion, so that delay is the safe lookahead.
    opts.lookahead = config_.params.wire_latency;
    opts.threads = config_.shard_threads;
    opts.eot_extension = config_.params.pdes_eot_extension;
    // Receive-to-emit slack: a delivered packet pays a dom0 rx job and any
    // consequent send pays a dom0 tx job, each at least dom0_packet_cost of
    // CPU time, before it can reach the fabric again.
    opts.chain_slack = 2 * config_.params.dom0_packet_cost;
    opts.round_prologue = [fabric = fabric_.get()] { fabric->seal_round(); };
    // Round events land in shard 0's sink (enable_tracing runs before
    // start(), so the pointer is final here; null stays null).
    opts.trace = stacks_[0]->trace_sink.get();
    group_ = std::make_unique<sim::ShardGroup>(std::move(execs), opts);
  }
}

void Scenario::run_for(SimTime duration) {
  assert(started_);
  if (group_ == nullptr) {
    stacks_[0]->simulation.run_until(stacks_[0]->simulation.now() + duration);
    return;
  }
  // All shard clocks are aligned between calls (run_until's final phase).
  group_->run_until(stacks_[0]->simulation.now() + duration);
}

void Scenario::schedule_migration(virt::Vm& vm, SimTime at, int dest_node) {
  assert(dest_node >= 0 && dest_node < config_.nodes);
  assert(vm.global_id() >= 0 && "schedule_migration needs a scenario VM");
  const int src_node =
      vm.node().platform().global_node_id(vm.node());
  const int k = shard_of_node(src_node);
  ShardStack& stack = this->stack(k);
  const std::int64_t gid = vm.global_id();
  // The migration acts on the network at `at`; the shard output bound must
  // see it from the moment it is scheduled (HttperfClient::arrival pattern).
  stack.platform->engine().note_effect_at(at);
  virt::Vm* vmp = &vm;
  control::Migrator* migrator = stack.migrator.get();
  virt::LocationDirectory* directory = stack.directory.get();
  stack.simulation.call_at(at, [vmp, migrator, directory, gid, k, dest_node] {
    // Skip silently if the VM moved off this shard in the meantime, is in
    // transit, became unmigratable, or already sits on the target.
    const virt::VmLocation& loc = directory->at(gid);
    if (loc.shard != k || loc.node_global == dest_node) return;
    if (!migrator->can_migrate(*vmp)) return;
    migrator->migrate(*vmp, dest_node);
  });
}

void Scenario::warmup_and_measure(SimTime warmup, SimTime measure) {
  if (!started_) start();
  run_for(warmup);
  metrics_->reset_all();
  reset_platform_stats();
  run_for(measure);
}

void Scenario::reset_platform_stats() {
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      // vm_ptr: migrated-away VMs leave tombstone ids behind.
      virt::Vm* vm = platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm == nullptr) continue;
      vm->totals() = virt::Vm::Totals{};
      for (auto& v : vm->vcpus()) v.mutable_totals() = virt::Vcpu::Totals{};
    }
  }
  llc_baseline_ = 0;  // totals were zeroed; baseline resets with them
  stats_reset_at_ = stacks_[0]->simulation.now();
}

std::uint64_t Scenario::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->simulation.events_executed();
  return total;
}

std::vector<virt::Vm*> Scenario::guest_vms() const {
  std::vector<virt::Vm*> out;
  for (const auto& stack : stacks_) {
    for (virt::Vm* vm : stack->platform->guest_vms()) out.push_back(vm);
  }
  return out;
}

double Scenario::mean_superstep(const std::string& key) {
  return metrics_->durations(key + "/superstep").mean_seconds();
}

double Scenario::mean_superstep_with_prefix(const std::string& prefix) {
  double sum = 0.0;
  int n = 0;
  for (const auto& key : bsp_keys_) {
    if (key.rfind(prefix, 0) != 0) continue;
    const double m = mean_superstep(key);
    if (m > 0.0) {
      sum += m;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

double Scenario::avg_parallel_spin_latency() {
  sim::SimTime wall = 0;
  std::uint64_t episodes = 0;
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      const virt::Vm* vm =
          platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm == nullptr || !vm->is_parallel()) continue;
      wall += vm->totals().spin_wall;
      episodes += vm->totals().spin_episodes;
    }
  }
  if (episodes == 0) return 0.0;
  return sim::to_seconds(wall) / static_cast<double>(episodes);
}

double Scenario::llc_miss_rate() {
  std::uint64_t misses = 0;
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      const virt::Vm* vm =
          platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm != nullptr) misses += vm->totals().llc_misses;
    }
  }
  const SimTime span = stacks_[0]->simulation.now() - stats_reset_at_;
  if (span <= 0) return 0.0;
  return static_cast<double>(misses - llc_baseline_) / sim::to_seconds(span);
}

ScenarioConfig ScenarioBuilder::validated() const {
  auto require_positive = [](int v, const char* what) {
    if (v <= 0) {
      throw std::invalid_argument(std::string(what) + " must be positive, got " +
                                  std::to_string(v));
    }
  };
  require_positive(config_.nodes, "nodes");
  require_positive(config_.pcpus_per_node, "pcpus_per_node");
  require_positive(config_.vms_per_node, "vms_per_node");
  require_positive(config_.vcpus_per_vm, "vcpus_per_vm");
  require_positive(config_.shards, "shards");
  if (!allow_wide_vms_ && config_.vcpus_per_vm > config_.pcpus_per_node) {
    throw std::invalid_argument(
        "vcpus_per_vm (" + std::to_string(config_.vcpus_per_vm) +
        ") exceeds pcpus_per_node (" + std::to_string(config_.pcpus_per_node) +
        "); a VM wider than its host cannot run all VCPUs concurrently — "
        "call allow_wide_vms() if this overcommit is intentional");
  }
  if (config_.shards > config_.nodes) {
    throw std::invalid_argument(
        "shards (" + std::to_string(config_.shards) + ") exceeds nodes (" +
        std::to_string(config_.nodes) +
        "); a shard must own at least one node");
  }
  if (config_.shards > 1 &&
      config_.params.wire_latency < config_.params.pdes_lookahead_floor) {
    throw std::invalid_argument(
        "wire_latency (" + std::to_string(config_.params.wire_latency) +
        " ns) is below pdes_lookahead_floor (" +
        std::to_string(config_.params.pdes_lookahead_floor) +
        " ns); conservative rounds would synchronize more than they "
        "simulate — raise the latency or lower the floor");
  }
  return config_;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() const {
  std::unique_ptr<Scenario> scenario(new Scenario(validated()));
  if (trace_) scenario->enable_tracing(trace_cfg_);
  if (invariants_) scenario->enable_invariants();
  return scenario;
}

}  // namespace atcsim::cluster
