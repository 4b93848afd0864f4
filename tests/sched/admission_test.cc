// Admission control and placement: per-class quotas, bounded queues with
// back-pressure, strict priority dequeue, and the first-fit node-aligned
// rank allocator.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/fault/checkpoint.h"
#include "src/sched/admission.h"
#include "src/sched/placement.h"

namespace mcrdl::sched {
namespace {

JobSpec spec(std::uint64_t id, int ranks, QosClass qos) {
  JobSpec s;
  s.id = id;
  s.tenant = "tenant-" + std::to_string(id);
  s.ranks = ranks;
  s.qos = qos;
  s.steps = 1;
  return s;
}

const auto kAlwaysFits = [](const JobSpec&) { return true; };
const auto kNeverFits = [](const JobSpec&) { return false; };

TEST(Admission, QuotaRanksFollowShares) {
  AdmissionController admission(64, AdmissionConfig{});
  EXPECT_EQ(admission.quota_ranks(QosClass::Gold), 64);
  EXPECT_EQ(admission.quota_ranks(QosClass::Silver), 48);
  EXPECT_EQ(admission.quota_ranks(QosClass::Bronze), 32);
}

TEST(Admission, AdmitsWithinQuotaQueuesBeyond) {
  AdmissionController admission(16, AdmissionConfig{});
  std::string reason;
  // Bronze quota on 16 ranks is 8: one 8-rank job fills it.
  const JobSpec first = spec(0, 8, QosClass::Bronze);
  EXPECT_EQ(admission.arrive(0, first, kAlwaysFits, &reason),
            AdmissionController::Verdict::Admit);
  admission.note_started(first);
  EXPECT_EQ(admission.running_ranks(QosClass::Bronze), 8);

  EXPECT_EQ(admission.arrive(1, spec(1, 4, QosClass::Bronze), kAlwaysFits, &reason),
            AdmissionController::Verdict::Queue);
  EXPECT_EQ(admission.queued(QosClass::Bronze), 1u);

  // Gold has its own quota; the bronze backlog does not block it.
  EXPECT_EQ(admission.arrive(2, spec(2, 8, QosClass::Gold), kAlwaysFits, &reason),
            AdmissionController::Verdict::Admit);

  // Once the bronze job finishes, the queued head becomes runnable.
  admission.note_finished(first);
  const auto popped = admission.pop_runnable(kAlwaysFits);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 1u);
  EXPECT_EQ(admission.queued(QosClass::Bronze), 0u);
}

TEST(Admission, PlacementPressureQueuesEvenUnderQuota) {
  AdmissionController admission(16, AdmissionConfig{});
  std::string reason;
  // Quota would admit, but no contiguous range is free right now.
  EXPECT_EQ(admission.arrive(0, spec(0, 8, QosClass::Gold), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);
  // FIFO within the class: with a queued head, a newcomer can't jump even
  // if placement has recovered for its (smaller) shape.
  EXPECT_EQ(admission.arrive(1, spec(1, 4, QosClass::Gold), kAlwaysFits, &reason),
            AdmissionController::Verdict::Queue);
  EXPECT_EQ(admission.queued(QosClass::Gold), 2u);
}

TEST(Admission, RejectsUnsatisfiableUpFront) {
  AdmissionController admission(16, AdmissionConfig{});
  std::string reason;
  // Bronze quota is 8 ranks on this world; a 12-rank bronze job can never
  // run and must not wedge the queue.
  EXPECT_EQ(admission.arrive(0, spec(0, 12, QosClass::Bronze), kAlwaysFits, &reason),
            AdmissionController::Verdict::Reject);
  EXPECT_NE(reason.find("unsatisfiable"), std::string::npos);
  EXPECT_NE(reason.find("bronze"), std::string::npos);
  EXPECT_EQ(admission.total_queued(), 0u);

  EXPECT_EQ(admission.arrive(1, spec(1, 32, QosClass::Gold), kAlwaysFits, &reason),
            AdmissionController::Verdict::Reject);
}

TEST(Admission, BoundedQueueRejectsWhenFull) {
  AdmissionConfig config;
  config.silver.max_queued = 2;
  AdmissionController admission(16, config);
  std::string reason;
  const JobSpec runner = spec(0, 12, QosClass::Silver);
  ASSERT_EQ(admission.arrive(0, runner, kAlwaysFits, &reason),
            AdmissionController::Verdict::Admit);
  admission.note_started(runner);

  EXPECT_EQ(admission.arrive(1, spec(1, 8, QosClass::Silver), kAlwaysFits, &reason),
            AdmissionController::Verdict::Queue);
  EXPECT_EQ(admission.arrive(2, spec(2, 8, QosClass::Silver), kAlwaysFits, &reason),
            AdmissionController::Verdict::Queue);
  EXPECT_EQ(admission.arrive(3, spec(3, 8, QosClass::Silver), kAlwaysFits, &reason),
            AdmissionController::Verdict::Reject);
  EXPECT_NE(reason.find("queue full"), std::string::npos);
}

TEST(Admission, DequeueIsStrictPriorityThenFifo) {
  AdmissionController admission(16, AdmissionConfig{});
  std::string reason;
  const JobSpec runner = spec(9, 16, QosClass::Gold);
  ASSERT_EQ(admission.arrive(9, runner, kAlwaysFits, &reason),
            AdmissionController::Verdict::Admit);
  admission.note_started(runner);

  // Queue bronze, silver, then two gold jobs while no placement is free
  // (the runner holds all 16 ranks, so the probe fails).
  ASSERT_EQ(admission.arrive(0, spec(0, 4, QosClass::Bronze), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);
  ASSERT_EQ(admission.arrive(1, spec(1, 4, QosClass::Silver), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);
  ASSERT_EQ(admission.arrive(2, spec(2, 4, QosClass::Gold), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);
  ASSERT_EQ(admission.arrive(3, spec(3, 4, QosClass::Gold), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);

  admission.note_finished(runner);
  // Gold first (FIFO within the class), then silver, then bronze.
  std::vector<std::size_t> order;
  while (auto index = admission.pop_runnable(kAlwaysFits)) {
    order.push_back(*index);
    admission.note_started(spec(order.back(), 4,
                                order.back() == 0   ? QosClass::Bronze
                                : order.back() == 1 ? QosClass::Silver
                                                    : QosClass::Gold));
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 3, 1, 0}));
}

TEST(Admission, HeadSatisfiableWhenIdleDetectsWedge) {
  AdmissionController admission(16, AdmissionConfig{});
  std::string reason;
  EXPECT_TRUE(admission.head_satisfiable_when_idle());  // empty queue
  ASSERT_EQ(admission.arrive(0, spec(0, 8, QosClass::Gold), kNeverFits, &reason),
            AdmissionController::Verdict::Queue);
  EXPECT_TRUE(admission.head_satisfiable_when_idle());
  const auto drained = admission.drain();
  EXPECT_EQ(drained, (std::vector<std::size_t>{0}));
  EXPECT_EQ(admission.total_queued(), 0u);
}

TEST(Placement, FirstFitIsNodeAligned) {
  RankAllocator allocator(32, 4);
  const auto a = allocator.allocate(8);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->begin, 0);

  const auto b = allocator.allocate(4);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->begin, 8);

  allocator.release(*a);
  // A node-sized request reuses the freed aligned hole at 0.
  const auto c = allocator.allocate(4);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->begin, 0);

  // 8 ranks skip the sub-node hole at [4, 8) for the aligned fit at 12...
  const auto d = allocator.allocate(8);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->begin, 12);
  // ...but a sub-node request may fill the unaligned hole.
  const auto e = allocator.allocate(2);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->begin, 4);
}

TEST(Placement, ReleaseCoalescesNeighbours) {
  RankAllocator allocator(16, 4);
  const auto a = allocator.allocate(4);
  const auto b = allocator.allocate(4);
  const auto c = allocator.allocate(4);
  ASSERT_TRUE(a && b && c);
  allocator.release(*a);
  allocator.release(*c);
  // c merges with the free tail: [0,4) and [8,16).
  EXPECT_EQ(allocator.free_list().size(), 2u);
  allocator.release(*b);
  // Everything merges back into one free range.
  ASSERT_EQ(allocator.free_list().size(), 1u);
  EXPECT_EQ(allocator.free_list()[0].begin, 0);
  EXPECT_EQ(allocator.free_list()[0].count, 16);
  EXPECT_EQ(allocator.free_ranks(), 16);
}

TEST(Placement, FitsMatchesAllocate) {
  RankAllocator allocator(16, 4);
  EXPECT_TRUE(allocator.fits(16));
  const auto a = allocator.allocate(12);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(allocator.fits(4));
  EXPECT_FALSE(allocator.fits(8));
  EXPECT_FALSE(allocator.allocate(8).has_value());
}

// fits() answers from cached largest runs; a brute-force scan of the free
// list must agree with it after every step of random allocate/release
// sequences, for every count up to one past the world.
TEST(Placement, FitsAgreesWithAFreeListScan) {
  constexpr int kWorld = 64;
  constexpr int kAlign = 4;
  const auto scan_fits = [](const RankAllocator& allocator, int count) {
    const int align = count >= kAlign ? kAlign : 1;
    for (const RankRange& range : allocator.free_list()) {
      const int begin = (range.begin + align - 1) / align * align;
      if (begin + count <= range.end()) return true;
    }
    return false;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    RankAllocator allocator(kWorld, kAlign);
    std::vector<RankRange> held;
    for (int step = 0; step < 400; ++step) {
      if (held.empty() || rng.next_below(2) == 0) {
        const int count = 1 + static_cast<int>(rng.next_below(24));
        if (const auto range = allocator.allocate(count)) held.push_back(*range);
      } else {
        const std::size_t pick = rng.next_below(held.size());
        allocator.release(held[pick]);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      for (int count = 1; count <= kWorld + 1; ++count) {
        ASSERT_EQ(allocator.fits(count), scan_fits(allocator, count))
            << "seed " << seed << " step " << step << " count " << count;
      }
    }
  }
}

TEST(Placement, DoubleReleaseThrows) {
  RankAllocator allocator(16, 4);
  const auto a = allocator.allocate(4);
  ASSERT_TRUE(a.has_value());
  allocator.release(*a);
  EXPECT_THROW(allocator.release(*a), Error);
}

// --- checkpoint (DESIGN.md §13) ---------------------------------------------

// A controller with running ranks in every class and a mixed backlog, for
// the round-trip tests below.
AdmissionController populated_controller() {
  AdmissionController admission(16, AdmissionConfig{});
  admission.note_started(spec(0, 4, QosClass::Gold));
  admission.note_started(spec(1, 4, QosClass::Silver));
  admission.arrive(2, spec(2, 4, QosClass::Gold), kNeverFits, nullptr);
  admission.arrive(3, spec(3, 2, QosClass::Bronze), kNeverFits, nullptr);
  admission.arrive(4, spec(4, 4, QosClass::Bronze), kNeverFits, nullptr);
  return admission;
}

TEST(AdmissionCheckpoint, SaveRestoreSaveIsByteIdentical) {
  AdmissionController a = populated_controller();
  const std::string snap = a.save_state();

  AdmissionController b(16, AdmissionConfig{});
  b.restore_state(snap);
  EXPECT_EQ(b.save_state(), snap) << "save -> restore -> save must round-trip byte-identically";
  for (QosClass qos : all_qos_classes()) {
    EXPECT_EQ(b.running_ranks(qos), a.running_ranks(qos));
    EXPECT_EQ(b.queued(qos), a.queued(qos));
  }
  // The restored backlog drains in the same strict-priority order.
  std::vector<std::size_t> drained_a = a.drain();
  std::vector<std::size_t> drained_b = b.drain();
  EXPECT_EQ(drained_b, drained_a);
}

TEST(AdmissionCheckpoint, RestoreRejectsWorldMismatchWithoutPartialApply) {
  const std::string snap = populated_controller().save_state();
  AdmissionController other(32, AdmissionConfig{});
  other.arrive(7, spec(7, 4, QosClass::Gold), kNeverFits, nullptr);
  EXPECT_THROW(other.restore_state(snap), InvalidArgument);
  EXPECT_THROW(other.restore_state("not an admission snapshot"), InvalidArgument);
  // A failed restore must leave the controller exactly as it was.
  EXPECT_EQ(other.queued(QosClass::Gold), 1u);
  EXPECT_EQ(other.running_ranks(QosClass::Gold), 0);
}

TEST(AdmissionCheckpoint, RegistersAsACheckpointStoreSection) {
  // The serving layer checkpoints through the same store the runtime uses:
  // an "admission" section, round-tripped like "recovery" and "tuner".
  AdmissionController a = populated_controller();
  fault::CheckpointStore store;
  store.register_section(
      "admission", [&a] { return a.save_state(); },
      [&a](const std::string& body) { a.restore_state(body); });
  const std::string checkpoint = store.save();

  AdmissionController b(16, AdmissionConfig{});
  fault::CheckpointStore other;
  other.register_section(
      "admission", [&b] { return b.save_state(); },
      [&b](const std::string& body) { b.restore_state(body); });
  other.restore(checkpoint);
  EXPECT_EQ(other.save(), checkpoint);
  EXPECT_EQ(b.save_state(), a.save_state());
}

}  // namespace
}  // namespace mcrdl::sched
