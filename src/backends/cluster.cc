#include "src/backends/cluster.h"

namespace mcrdl {

ClusterContext::ClusterContext(net::SystemConfig config) : topo_(std::move(config)) {
  const int world = topo_.world_size();
  devices_.reserve(world);
  for (int rank = 0; rank < world; ++rank) {
    devices_.push_back(
        std::make_unique<sim::Device>(&sched_, rank, topo_.node_of(rank), topo_.local_of(rank)));
  }
}

sim::Device* ClusterContext::device(int rank) {
  MCRDL_REQUIRE(rank >= 0 && rank < world_size(), "device rank out of range");
  return devices_[static_cast<std::size_t>(rank)].get();
}

void ClusterContext::run_spmd(const std::function<void(int)>& fn) {
  run_spmd(world_size(), fn);
}

void ClusterContext::run_spmd(int ranks, const std::function<void(int)>& fn) {
  MCRDL_REQUIRE(ranks >= 1 && ranks <= world_size(), "SPMD rank count out of range");
  for (int rank = 0; rank < ranks; ++rank) {
    sched_.spawn("rank" + std::to_string(rank), [fn, rank] { fn(rank); });
  }
  sched_.run();
}

std::string ClusterContext::metrics_json() {
  const SimTime now = sched_.now();
  const auto sync = [&](const char* link, const net::LinkUsage::ClassUsage& u) {
    const obs::Labels labels{{"link", link}};
    metrics_.gauge("link_ops", labels).set(static_cast<double>(u.ops));
    metrics_.gauge("link_bytes", labels).set(static_cast<double>(u.bytes));
    metrics_.gauge("link_busy_us", labels).set(u.busy_us);
    // Mean concurrent occupancy of the link class over the run so far; can
    // exceed 1.0 when transfers overlap (many communicators in flight).
    metrics_.gauge("link_utilization", labels).set(now > 0.0 ? u.busy_us / now : 0.0);
  };
  sync("intra", usage_.intra());
  sync("inter", usage_.inter());
  return metrics_.to_json();
}

}  // namespace mcrdl
