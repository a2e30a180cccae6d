#include "exp/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace atcsim::exp {

double scale_factor() {
  const char* env = std::getenv("ATCSIM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

sim::SimTime scaled(sim::SimTime base) {
  return static_cast<sim::SimTime>(static_cast<double>(base) *
                                   scale_factor());
}

void banner(const std::string& what, const std::string& setup) {
  std::printf("atcsim bench: %s\n  setup: %s\n  (simulated platform; shapes "
              "reproduce the paper, absolute values are model-relative)\n\n",
              what.c_str(), setup.c_str());
}

bool trace_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return true;
  }
  const char* env = std::getenv("ATCSIM_TRACE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

std::optional<double> projected_wall_s(std::size_t threads, double wall_s,
                                       double serial_s, double critical_s) {
  if (threads != 1) return std::nullopt;
  return wall_s - serial_s + critical_s;
}

void set_global_guest_slice(cluster::Scenario& s, sim::SimTime slice) {
  for (virt::Vm* vm : s.guest_vms()) vm->set_time_slice(slice);
}

}  // namespace atcsim::exp
