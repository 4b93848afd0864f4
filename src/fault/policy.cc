#include "src/fault/policy.h"

#include "src/common/rng.h"
#include "src/common/status.h"

namespace mcrdl::fault {

SimTime RetryPolicy::backoff(int attempt, int rank) const {
  const SimTime window = backoff(attempt);
  if (jitter_seed == 0) return window;
  // One child stream per (rank, attempt): the draw depends on nothing but
  // the seed and those two coordinates, so concurrent retries on other
  // ranks — or a different interleaving on replay — cannot move it. Salt
  // mixes the coordinates injectively for the attempt counts in play.
  Rng stream = Rng(jitter_seed).split(
      static_cast<std::uint64_t>(rank) * 0x9e3779b97f4a7c15ull +
      static_cast<std::uint64_t>(attempt));
  // Full jitter over (0, window]: never zero, so a retry always yields the
  // baton and the trace keeps a visible backoff edge.
  return window * (1.0 - stream.next_double());
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  MCRDL_REQUIRE(config_.threshold >= 1, "circuit breaker threshold must be >= 1");
  MCRDL_REQUIRE(config_.cooldown >= 1, "circuit breaker cooldown must be >= 1");
}

CircuitBreaker::SlotId CircuitBreaker::slot(const std::string& backend, int rank) {
  const auto [it, created] =
      index_.try_emplace({backend, rank}, static_cast<SlotId>(slots_.size()));
  if (created) slots_.push_back(Slot{backend, rank, Entry{}});
  return it->second;
}

const CircuitBreaker::SlotId* CircuitBreaker::find(const std::string& backend, int rank) const {
  const auto it = index_.find({backend, rank});
  return it == index_.end() ? nullptr : &it->second;
}

void CircuitBreaker::reset() {
  for (Slot& slot : slots_) slot.entry = Entry{};
}

void CircuitBreaker::transition(SlotId id, BreakerState to) {
  Slot& slot = slots_[id];
  slot.entry.state = to;
  if (hook_) hook_(id, slot.backend, slot.rank, to);
}

bool CircuitBreaker::record_failure(SlotId id) {
  Entry& entry = slots_[id].entry;
  ++entry.failures;
  switch (entry.state) {
    case BreakerState::Closed:
      if (entry.failures >= config_.threshold) {
        entry.skipped = 0;
        transition(id, BreakerState::Open);
        return true;
      }
      return false;
    case BreakerState::HalfOpen:
      // A failed probe re-opens immediately: the backend proved it is still
      // sick, so it goes back to aging toward the next probe window.
      entry.skipped = 0;
      entry.successes = 0;
      transition(id, BreakerState::Open);
      return true;
    case BreakerState::Open:
      return false;
  }
  return false;
}

void CircuitBreaker::record_success(SlotId id) {
  Entry& entry = slots_[id].entry;
  switch (entry.state) {
    case BreakerState::Closed:
      entry.failures = 0;
      break;
    case BreakerState::HalfOpen:
      if (++entry.successes >= config_.cooldown) {
        entry.failures = 0;
        entry.skipped = 0;
        entry.successes = 0;
        transition(id, BreakerState::Closed);
      }
      break;
    case BreakerState::Open:
      // Successes cannot arrive for an open backend through routing; an
      // out-of-band success does not close the breaker (probe first).
      break;
  }
}

void CircuitBreaker::note_skipped(SlotId id) {
  Entry& entry = slots_[id].entry;
  if (entry.state != BreakerState::Open || config_.probe_after_ops <= 0) return;
  if (++entry.skipped >= config_.probe_after_ops) {
    entry.skipped = 0;
    entry.successes = 0;
    transition(id, BreakerState::HalfOpen);
  }
}

bool CircuitBreaker::allow_probe(SlotId id) {
  Entry& entry = slots_[id].entry;
  if (entry.state != BreakerState::Open) return false;
  entry.skipped = 0;
  entry.successes = 0;
  transition(id, BreakerState::HalfOpen);
  return true;
}

}  // namespace mcrdl::fault
