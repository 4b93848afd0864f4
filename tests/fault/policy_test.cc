// RetryPolicy backoff schedule and CircuitBreaker state machine.
#include "src/fault/policy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mcrdl::fault {
namespace {

TEST(RetryPolicy, ExponentialBackoffSchedule) {
  RetryPolicy p;  // 50us base, x2
  EXPECT_DOUBLE_EQ(p.backoff(1), 50.0);
  EXPECT_DOUBLE_EQ(p.backoff(2), 100.0);
  EXPECT_DOUBLE_EQ(p.backoff(3), 200.0);
  RetryPolicy slow{5, 10.0, 3.0};
  EXPECT_DOUBLE_EQ(slow.backoff(1), 10.0);
  EXPECT_DOUBLE_EQ(slow.backoff(4), 270.0);
}

TEST(RetryPolicy, ZeroSeedDisablesJitterExactly) {
  // jitter_seed = 0 is the default; the rank-aware overload must then be
  // the exact exponential schedule every pinned trace was recorded with.
  RetryPolicy p;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    for (int rank = 0; rank < 8; ++rank) {
      EXPECT_DOUBLE_EQ(p.backoff(attempt, rank), p.backoff(attempt));
    }
  }
}

TEST(RetryPolicy, JitterDrawsStayInTheExponentialWindow) {
  RetryPolicy p;
  p.jitter_seed = 7;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    for (int rank = 0; rank < 16; ++rank) {
      const SimTime b = p.backoff(attempt, rank);
      EXPECT_GT(b, 0.0) << "full jitter must never sleep zero";
      EXPECT_LE(b, p.backoff(attempt)) << "jitter cannot exceed the window";
    }
  }
}

TEST(RetryPolicy, JitterDecorrelatesRanksButReproducesPerSeed) {
  // After a shared outage, two ranks' retry schedules must diverge (no
  // thundering herd) while a fixed seed reproduces each schedule exactly.
  RetryPolicy p;
  p.jitter_seed = 42;
  std::vector<SimTime> rank0, rank1;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    rank0.push_back(p.backoff(attempt, 0));
    rank1.push_back(p.backoff(attempt, 1));
  }
  EXPECT_NE(rank0, rank1) << "two ranks drew identical jitter schedules";

  RetryPolicy replay;
  replay.jitter_seed = 42;
  std::vector<SimTime> rank0_again;
  for (int attempt = 1; attempt <= 6; ++attempt) rank0_again.push_back(replay.backoff(attempt, 0));
  EXPECT_EQ(rank0, rank0_again) << "the same seed must reproduce the exact trace";

  RetryPolicy reseeded;
  reseeded.jitter_seed = 43;
  std::vector<SimTime> rank0_other;
  for (int attempt = 1; attempt <= 6; ++attempt) rank0_other.push_back(reseeded.backoff(attempt, 0));
  EXPECT_NE(rank0, rank0_other) << "different seeds must draw different schedules";
}

TEST(RetryPolicy, JitterIsAPureFunctionOfSeedRankAndAttempt) {
  // No hidden stream state: interleaving queries in any order cannot change
  // a draw, so retries replayed after recovery sleep the same backoff.
  RetryPolicy p;
  p.jitter_seed = 9;
  const SimTime first = p.backoff(3, 5);
  p.backoff(1, 0);
  p.backoff(4, 2);
  EXPECT_DOUBLE_EQ(p.backoff(3, 5), first);
}

TEST(CircuitBreaker, OpensAfterThresholdConsecutiveFailures) {
  CircuitBreaker cb(3);
  EXPECT_TRUE(cb.healthy("nccl", 0));
  EXPECT_FALSE(cb.record_failure("nccl", 0));
  EXPECT_FALSE(cb.record_failure("nccl", 0));
  EXPECT_TRUE(cb.healthy("nccl", 0));  // 2 < 3: still closed
  EXPECT_TRUE(cb.record_failure("nccl", 0));  // third failure trips it
  EXPECT_FALSE(cb.healthy("nccl", 0));
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker cb(3);
  cb.record_failure("nccl", 0);
  cb.record_failure("nccl", 0);
  cb.record_success("nccl", 0);
  EXPECT_EQ(cb.consecutive_failures("nccl", 0), 0);
  cb.record_failure("nccl", 0);
  cb.record_failure("nccl", 0);
  EXPECT_TRUE(cb.healthy("nccl", 0));  // the streak restarted after the success
}

TEST(CircuitBreaker, HealthIsPerRank) {
  // A rank's health must depend only on the verdicts that rank observed:
  // shared health would let a fast rank's trip (recorded on a later op)
  // reroute a straggler mid-way through an earlier op's retry ladder,
  // desyncing communicator sequence numbers.
  CircuitBreaker cb(2);
  cb.record_failure("nccl", 0);
  cb.record_failure("nccl", 1);
  EXPECT_EQ(cb.consecutive_failures("nccl", 0), 1);
  EXPECT_EQ(cb.consecutive_failures("nccl", 1), 1);
  EXPECT_TRUE(cb.healthy("nccl", 0));  // neither rank reached the threshold
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  EXPECT_FALSE(cb.healthy("nccl", 0));  // rank 0 tripped...
  EXPECT_TRUE(cb.healthy("nccl", 1));   // ...rank 1 keeps its own ladder
  EXPECT_TRUE(cb.record_failure("nccl", 1));  // until it trips at the same op
  EXPECT_FALSE(cb.healthy("nccl", 1));
}

TEST(CircuitBreaker, BackendsAreIndependent) {
  CircuitBreaker cb(1);
  cb.record_failure("nccl", 0);
  EXPECT_FALSE(cb.healthy("nccl", 0));
  EXPECT_TRUE(cb.healthy("mv2-gdr", 0));
}

TEST(CircuitBreaker, SuccessWhileOpenDoesNotClose) {
  // An open breaker routes nothing, so successes recorded against it (e.g.
  // from a stale in-flight op) must not silently close it; recovery goes
  // through the half-open probe path.
  CircuitBreaker cb(1);
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  cb.record_success("nccl", 0);
  EXPECT_FALSE(cb.healthy("nccl", 0));
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Open);
  EXPECT_FALSE(cb.record_failure("nccl", 0));  // not a *new* trip
}

TEST(CircuitBreaker, OpenToHalfOpenAfterEnoughSkippedOps) {
  // probe_after_ops denied routes age the breaker into HalfOpen, which
  // admits traffic again (healthy) — the next op becomes the probe.
  CircuitBreaker cb(BreakerConfig{1, 2, 3});
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Open);
  cb.note_skipped("nccl", 0);
  cb.note_skipped("nccl", 0);
  EXPECT_FALSE(cb.healthy("nccl", 0));  // 2 < 3: still open
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
  EXPECT_TRUE(cb.healthy("nccl", 0));
}

TEST(CircuitBreaker, HalfOpenClosesAfterCooldownSuccesses) {
  CircuitBreaker cb(BreakerConfig{1, 2, 1});
  cb.record_failure("nccl", 0);
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
  cb.record_success("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);  // 1 < 2 successes
  cb.record_success("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Closed);
  // Fully reset: the next trip needs a fresh failure streak.
  EXPECT_EQ(cb.consecutive_failures("nccl", 0), 0);
  EXPECT_TRUE(cb.record_failure("nccl", 0));
}

TEST(CircuitBreaker, FailedProbeReopensImmediately) {
  CircuitBreaker cb(BreakerConfig{2, 2, 1});
  cb.record_failure("nccl", 0);
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
  cb.record_success("nccl", 0);  // one good probe...
  // ...but a single failure in HalfOpen re-opens without a fresh streak,
  // and it counts as a new trip (return true).
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Open);
  // The re-opened breaker needs a full round of skips before the next probe.
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
}

TEST(CircuitBreaker, AllowProbeForcesHalfOpen) {
  CircuitBreaker cb(BreakerConfig{1, 1, 0});  // probing by op count disabled
  cb.record_failure("nccl", 0);
  cb.note_skipped("nccl", 0);
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Open);  // skips ignored
  EXPECT_TRUE(cb.allow_probe("nccl", 0));   // explicit admission
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
  EXPECT_FALSE(cb.allow_probe("nccl", 0));  // only meaningful while open
  cb.record_success("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Closed);
}

TEST(CircuitBreaker, SkipsOnlyAgeOpenBreakers) {
  CircuitBreaker cb(BreakerConfig{2, 1, 1});
  cb.note_skipped("nccl", 0);  // closed: no-op
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Closed);
  cb.record_failure("nccl", 0);
  cb.note_skipped("nccl", 0);  // still closed (1 < 2 failures): no-op
  EXPECT_TRUE(cb.record_failure("nccl", 0));
  cb.note_skipped("nccl", 0);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
  cb.note_skipped("nccl", 0);  // half-open: no-op, probes are in flight
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::HalfOpen);
}

TEST(CircuitBreaker, TransitionHookSeesEveryStateChange) {
  CircuitBreaker cb(BreakerConfig{1, 1, 1});
  std::vector<std::string> events;
  cb.set_transition_hook([&](BreakerSlotId, const std::string& backend, int rank,
                             BreakerState to) {
    events.push_back(backend + "/" + std::to_string(rank) + ":" + breaker_state_name(to));
  });
  cb.record_failure("nccl", 3);
  cb.note_skipped("nccl", 3);
  cb.record_success("nccl", 3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "nccl/3:open");
  EXPECT_EQ(events[1], "nccl/3:half_open");
  EXPECT_EQ(events[2], "nccl/3:closed");
}

TEST(CircuitBreaker, SlotAndStringCallsDriveOneStateMachine) {
  // threshold 2, cooldown 2, probe after 2 skips; every step alternates the
  // slot-keyed and string-keyed spelling of the same (backend, rank).
  CircuitBreaker cb(BreakerConfig{2, 2, 2});
  const CircuitBreaker::SlotId slot = cb.slot("nccl", 1);
  EXPECT_EQ(cb.slot("nccl", 1), slot);
  EXPECT_NE(cb.slot("nccl", 0), slot);
  EXPECT_FALSE(cb.record_failure(slot));
  EXPECT_EQ(cb.consecutive_failures("nccl", 1), 1);
  EXPECT_TRUE(cb.record_failure("nccl", 1));
  EXPECT_FALSE(cb.healthy(slot));
  EXPECT_EQ(cb.state(slot), BreakerState::Open);
  cb.note_skipped("nccl", 1);
  cb.note_skipped(slot);
  EXPECT_EQ(cb.state("nccl", 1), BreakerState::HalfOpen);
  cb.record_success(slot);
  EXPECT_EQ(cb.state("nccl", 1), BreakerState::HalfOpen);
  cb.record_success("nccl", 1);
  EXPECT_EQ(cb.state(slot), BreakerState::Closed);
  EXPECT_TRUE(cb.healthy("nccl", 1));
  EXPECT_FALSE(cb.record_failure(slot));
  EXPECT_TRUE(cb.record_failure("nccl", 1));
  EXPECT_TRUE(cb.allow_probe(slot));
  EXPECT_FALSE(cb.allow_probe("nccl", 1));  // already half-open
  EXPECT_EQ(cb.consecutive_failures(slot), 2);
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Closed);  // the other rank never moved
}

TEST(CircuitBreaker, StringQueriesOfAnUnknownKeyCreateNoSlot) {
  CircuitBreaker cb(1);
  cb.record_success("nccl", 0);
  cb.note_skipped("nccl", 0);
  EXPECT_FALSE(cb.allow_probe("nccl", 0));
  EXPECT_EQ(cb.state("nccl", 0), BreakerState::Closed);
  EXPECT_TRUE(cb.healthy("nccl", 0));
  EXPECT_EQ(cb.consecutive_failures("nccl", 0), 0);
  EXPECT_EQ(cb.num_slots(), 0u);
  EXPECT_TRUE(cb.record_failure("nccl", 0));  // a failure is what creates one
  EXPECT_EQ(cb.num_slots(), 1u);
  EXPECT_EQ(cb.slot("nccl", 0), 0u);
}

TEST(CircuitBreaker, SlotIdsSurviveResetAndEverySlotReadsClosed) {
  CircuitBreaker cb(BreakerConfig{2, 2, 1});
  std::vector<std::string> events;
  cb.set_transition_hook([&](BreakerSlotId, const std::string& backend, int, BreakerState to) {
    events.push_back(backend + ":" + breaker_state_name(to));
  });
  const CircuitBreaker::SlotId open = cb.slot("nccl", 0);
  const CircuitBreaker::SlotId half_open = cb.slot("mv2-gdr", 0);
  const CircuitBreaker::SlotId failing = cb.slot("ompi", 2);
  cb.record_failure(open);
  cb.record_failure(open);
  cb.record_failure(half_open);
  cb.record_failure(half_open);
  cb.note_skipped(half_open);
  cb.record_success(half_open);  // one of the two probe successes it needs
  cb.record_failure(failing);
  ASSERT_EQ(cb.state(open), BreakerState::Open);
  ASSERT_EQ(cb.state(half_open), BreakerState::HalfOpen);
  ASSERT_EQ(cb.consecutive_failures(failing), 1);

  cb.reset();
  EXPECT_EQ(cb.num_slots(), 3u);
  EXPECT_EQ(cb.slot("nccl", 0), open);
  EXPECT_EQ(cb.slot("mv2-gdr", 0), half_open);
  EXPECT_EQ(cb.slot("ompi", 2), failing);
  for (CircuitBreaker::SlotId id = 0; id < cb.num_slots(); ++id) {
    EXPECT_EQ(cb.state(id), BreakerState::Closed) << id;
    EXPECT_EQ(cb.consecutive_failures(id), 0) << id;
  }
  // No history left: one failure is below the threshold again, a skip ages
  // nothing, and a fresh trip needs the full threshold.
  events.clear();
  EXPECT_FALSE(cb.record_failure(failing));
  cb.note_skipped(open);
  cb.record_success(half_open);
  EXPECT_FALSE(cb.allow_probe(open));
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(cb.record_failure(open));
  EXPECT_TRUE(cb.record_failure(open));
  EXPECT_EQ(events, std::vector<std::string>{"nccl:open"});  // the hook stays
}

TEST(CircuitBreaker, HookReceivesTheSlotIdKeyAndRank) {
  CircuitBreaker cb(BreakerConfig{1, 1, 1});
  struct Event {
    BreakerSlotId slot;
    std::string backend;
    int rank;
    BreakerState to;
  };
  std::vector<Event> events;
  cb.set_transition_hook([&](BreakerSlotId slot, const std::string& backend, int rank,
                             BreakerState to) { events.push_back({slot, backend, rank, to}); });
  const CircuitBreaker::SlotId first = cb.slot("nccl", 5);
  cb.record_failure("mv2-gdr", 2);  // creates the second slot
  cb.record_failure(first);
  cb.allow_probe("mv2-gdr", 2);
  ASSERT_EQ(events.size(), 3u);
  const CircuitBreaker::SlotId second = cb.slot("mv2-gdr", 2);
  EXPECT_NE(first, second);
  EXPECT_EQ(events[0].slot, second);
  EXPECT_EQ(events[0].backend, "mv2-gdr");
  EXPECT_EQ(events[0].rank, 2);
  EXPECT_EQ(events[0].to, BreakerState::Open);
  EXPECT_EQ(events[1].slot, first);
  EXPECT_EQ(events[1].backend, "nccl");
  EXPECT_EQ(events[1].rank, 5);
  EXPECT_EQ(events[1].to, BreakerState::Open);
  EXPECT_EQ(events[2].slot, second);
  EXPECT_EQ(events[2].to, BreakerState::HalfOpen);
}

}  // namespace
}  // namespace mcrdl::fault
