#include "src/fault/failover.h"

#include <algorithm>

#include "src/common/status.h"

namespace mcrdl::fault {

std::string ResilienceReport::to_string() const {
  std::ostringstream out;
  out << "resilience report:\n"
      << "  operations succeeded : " << succeeded << "\n"
      << "  issue attempts       : " << attempted << "\n"
      << "  retries (transient)  : " << retried << "\n"
      << "  rerouted (failover)  : " << rerouted << "\n"
      << "  failed permanently   : " << failed << "\n"
      << "  breakers tripped     : " << breakers_tripped << "\n"
      << "  backoff virtual time : " << backoff_time_us << " us\n";
  // Elastic-recovery block only when a rank was actually lost, so transient
  // and outage reports keep the exact format they always had.
  if (ranks_lost > 0 || epochs > 0 || recovered > 0) {
    out << "  ranks lost           : " << ranks_lost << "\n"
        << "  recovery epochs      : " << epochs << "\n"
        << "  recovered ops        : " << recovered << "\n"
        << "  stale-epoch rejects  : " << stale_rejections << "\n";
  }
  // Grow-back block only when capacity actually came back (or a checkpoint
  // was restored), so shrink-only reports keep their exact format.
  if (ranks_rejoined > 0 || grow_events > 0 || checkpoint_restores > 0) {
    out << "  ranks rejoined       : " << ranks_rejoined << "\n"
        << "  grow events          : " << grow_events << "\n"
        << "  checkpoint restores  : " << checkpoint_restores << "\n";
  }
  if (!by_backend.empty()) {
    std::size_t width = 0;
    for (const auto& [name, counters] : by_backend) width = std::max(width, name.size());
    out << "  per-backend:\n";
    for (const auto& [name, counters] : by_backend) {
      out << "    " << name << std::string(width - name.size(), ' ') << " : failed "
          << counters.failed << ", rerouted away " << counters.rerouted;
      if (counters.grow_drained > 0) out << ", grow drained " << counters.grow_drained;
      out << "\n";
    }
  }
  return out.str();
}

FailoverRouter::FailoverRouter(FaultInjector* injector, RetryPolicy retry, BreakerConfig breaker,
                               bool failover_enabled)
    : injector_(injector), retry_(retry), breaker_(breaker), failover_(failover_enabled) {}

bool FailoverRouter::healthy(const std::string& backend, int rank) const {
  return breaker_.healthy(backend, rank);
}

std::string FailoverRouter::select(const std::string& preferred,
                                   const std::vector<std::string>& order, int rank) const {
  if (healthy(preferred, rank)) return preferred;
  if (!failover_) {
    throw BackendUnavailable("backend '" + preferred +
                             "' is out of service and failover is disabled");
  }
  for (const std::string& candidate : order) {
    if (candidate != preferred && healthy(candidate, rank)) return candidate;
  }
  throw BackendUnavailable("no healthy backend available (preferred '" + preferred + "')");
}

std::string FailoverRouter::next_healthy(const std::string& failed, const std::string& preferred,
                                         const std::vector<std::string>& order, int rank) const {
  if (!failover_) {
    throw BackendUnavailable("backend '" + failed + "' failed and failover is disabled");
  }
  // The preference order is `preferred`, then `order` without it; entry k is
  // found by walking `order`, which is a handful of names long.
  const bool listed = std::find(order.begin(), order.end(), preferred) != order.end();
  const std::size_t n = order.size() + (listed ? 0 : 1);
  const auto at = [&](std::size_t k) -> const std::string& {
    if (k == 0) return preferred;
    for (const std::string& name : order) {
      if (name != preferred && --k == 0) return name;
    }
    return preferred;  // unreachable: k < n
  };
  // Prefer backends after the failed one in the order; wrap to earlier
  // entries only as a last resort (they were skipped for a reason, but a
  // reason that may have been health that has since not changed — still
  // better than failing the op outright).
  std::size_t start = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (at(k) == failed) {
      start = k + 1;
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& candidate = at((start + i) % n);
    if (candidate != failed && healthy(candidate, rank)) return candidate;
  }
  throw BackendUnavailable("no healthy backend to fail over to (failed '" + failed + "')");
}

void FailoverRouter::record_success(const std::string& backend, int rank) {
  breaker_.record_success(backend, rank);
}

bool FailoverRouter::record_failure(const std::string& backend, int rank) {
  const bool tripped = breaker_.record_failure(backend, rank);
  // Every rank trips its own breaker (health is per-rank so routing stays
  // sequence-aligned), but the report counts each backend's loss once —
  // re-trips after a failed half-open probe included.
  if (tripped && tripped_backends_.insert(backend).second) ++report_.breakers_tripped;
  return tripped;
}

void FailoverRouter::age_breaker(const std::string& backend, int rank) {
  breaker_.note_skipped(backend, rank);
}

}  // namespace mcrdl::fault
