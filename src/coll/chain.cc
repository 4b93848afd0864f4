#include "src/coll/chain.h"

#include <algorithm>
#include <utility>

#include "src/common/status.h"

namespace mcrdl::coll {

// ---------------------------------------------------------------------------
// ChainWork
// ---------------------------------------------------------------------------

ChainWork::ChainWork(OverlapScheduler* owner, int rank, std::uint64_t epoch,
                     std::vector<ChainPhase> phases, std::function<void()> finalize)
    : owner_(owner), rank_(rank), epoch_(epoch), phases_(std::move(phases)),
      finalize_(std::move(finalize)) {
  MCRDL_REQUIRE(owner_ != nullptr, "ChainWork needs an OverlapScheduler");
}

void ChainWork::wait() {
  if (done_) return;
  try {
    try {
      owner_->drive(rank_, shared_from_this());
      return;
    } catch (const RankLostError&) {
      std::function<void()> recover = std::exchange(recover_, nullptr);
      if (!recover) throw;
      // Re-dispatch the original request synchronously through the full
      // pipeline; its recover stage parks until the epoch advances, remaps
      // the group onto the survivors and replays — the casualty's own replay
      // rethrows there, exactly like a flat op's.
      recover();
    }
  } catch (...) {
    // A failed chain whose replay is spent (or never existed) is terminal.
    if (error_ != nullptr) completion_.drop();
    throw;
  }
  // The replay completed the operation: one finished op for every observer.
  for (auto& fn : owner_->complete(*this)) fn();
}

void ChainWork::on_complete(InlineFn fn) {
  if (auto late = completion_.add(std::move(fn))) late();
}

void ChainWork::set_recover(std::function<void()> fn) { recover_ = std::move(fn); }

void ChainWork::set_restore(std::function<void()> fn) { restore_ = std::move(fn); }

// ---------------------------------------------------------------------------
// ChainGroupWork
// ---------------------------------------------------------------------------

ChainGroupWork::ChainGroupWork(std::vector<std::shared_ptr<ChainWork>> chains)
    : chains_(std::move(chains)) {
  MCRDL_REQUIRE(!chains_.empty(), "ChainGroupWork needs at least one chain");
}

// What a chunk's completion holds of its group. Fired, it counts the chunk
// done. Dropped unrun (the chunk failed for good, was pruned, or was
// abandoned at teardown), it drops the group's completion too: the group
// can then never fire, and its own callbacks may capture it.
struct ChainGroupWork::ChunkLink {
  explicit ChunkLink(std::shared_ptr<ChainGroupWork> g) : group(std::move(g)) {}
  ~ChunkLink() {
    if (!fired) group->completion_.drop();
  }
  std::shared_ptr<ChainGroupWork> group;
  bool fired = false;
};

void ChainGroupWork::arm() {
  MCRDL_CHECK(remaining_ == 0 && !done_) << "ChainGroupWork::arm called twice";
  remaining_ = static_cast<int>(chains_.size());
  for (auto& ch : chains_) {
    auto link = std::make_shared<ChunkLink>(shared_from_this());
    ch->on_complete([link] {
      link->fired = true;
      link->group->part_done();
    });
  }
}

void ChainGroupWork::part_done() {
  if (remaining_ > 0 && --remaining_ == 0) complete_now();
}

void ChainGroupWork::complete_now() {
  if (done_) return;
  for (const auto& ch : chains_) {
    complete_time_ = std::max(complete_time_, ch->complete_time());
  }
  Completion::Callbacks callbacks = completion_.fire();
  done_ = true;
  for (auto& fn : callbacks) fn();
}

void ChainGroupWork::wait() {
  for (auto& ch : chains_) ch->wait();
  complete_now();
}

void ChainGroupWork::on_complete(InlineFn fn) {
  if (auto late = completion_.add(std::move(fn))) late();
}

// ---------------------------------------------------------------------------
// OverlapScheduler
// ---------------------------------------------------------------------------

OverlapScheduler::OverlapScheduler(sim::Scheduler* sched, int world, bool overlap, int chunks)
    : sched_(sched), overlap_(overlap), chunks_(chunks) {
  MCRDL_REQUIRE(sched_ != nullptr, "OverlapScheduler needs a scheduler");
  MCRDL_REQUIRE(world >= 1, "OverlapScheduler needs a positive world size");
  MCRDL_REQUIRE(chunks_ >= 1, "overlap chunk count must be >= 1");
  slots_.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto s = std::make_unique<Slot>();
    s->cond = std::make_unique<sim::SimCondition>(sched_);
    slots_.push_back(std::move(s));
  }
}

OverlapScheduler::~OverlapScheduler() {
  for (auto& s : slots_) {
    for (auto& ch : s->chains) ch->completion_.drop();
  }
}

OverlapScheduler::Slot& OverlapScheduler::slot(int rank) const {
  MCRDL_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < slots_.size(),
                "rank out of range for OverlapScheduler");
  return *slots_[static_cast<std::size_t>(rank)];
}

std::shared_ptr<ChainWork> OverlapScheduler::make_chain(int rank, std::uint64_t epoch,
                                                        std::vector<ChainPhase> phases,
                                                        std::function<void()> finalize) {
  auto ch = std::make_shared<ChainWork>(this, rank, epoch, std::move(phases),
                                        std::move(finalize));
  Slot& s = slot(rank);
  s.chains.push_back(ch);
  ++s.gen;
  // Zero-phase degenerate case (single-rank composite): complete on the spot.
  maybe_complete(rank, ch);
  return ch;
}

void OverlapScheduler::drain(int rank) { drive(rank, nullptr); }

std::uint64_t OverlapScheduler::poke() {
  for (auto& s : slots_) {
    ++s->gen;
    s->cond->notify_all();
  }
  return 0;
}

std::size_t OverlapScheduler::live_chains(int rank) const { return slot(rank).chains.size(); }

void OverlapScheduler::fail(ChainWork& ch, std::exception_ptr err) {
  if (ch.done_ || ch.error_ != nullptr) return;
  ch.error_ = std::move(err);
  // Unpostable from here on; the completion stays pending so a successful
  // elastic replay (ChainWork::wait's recover path) still fires it.
  ch.phases_.clear();
  ch.next_phase_ = 0;
  ch.outstanding_ = 0;
  ch.finalize_ = nullptr;
  if (ch.restore_) {
    // Completed phases already mutated the payload in place (e.g. the intra
    // reduce accumulated into the leader's buffer); put the original bytes
    // back so the replay reduces each contribution exactly once.
    auto restore = std::move(ch.restore_);
    ch.restore_ = nullptr;
    restore();
  }
}

void OverlapScheduler::prune(Slot& s, bool include_errored) {
  auto it = std::remove_if(s.chains.begin(), s.chains.end(),
                           [include_errored](const std::shared_ptr<ChainWork>& ch) {
                             if (ch->done_) return true;
                             if (ch->error_ != nullptr && include_errored) {
                               ch->completion_.drop();  // dropped, not replayed
                               return true;
                             }
                             return false;
                           });
  s.chains.erase(it, s.chains.end());
}

void OverlapScheduler::drive(int rank, const std::shared_ptr<ChainWork>& target) {
  Slot& s = slot(rank);
  for (;;) {
    if (target != nullptr) {
      if (target->error_ != nullptr) break;  // rethrown below
      if (target->done_) {
        prune(s, /*include_errored=*/false);
        return;
      }
    }
    // An epoch bump failed-and-cancelled every in-flight sub-op of the old
    // epoch's chains; their completion callbacks will never fire, so fail
    // the chains here for replay instead of blocking forever.
    const std::uint64_t epoch = current_epoch();
    for (auto& ch : s.chains) {
      if (ch->epoch_ != epoch) {
        fail(*ch, std::make_exception_ptr(RankLostError(
                      "composite chain stamped epoch " + std::to_string(ch->epoch_) +
                      " bounced at epoch " + std::to_string(epoch) +
                      " after rank loss; replay on the new communicator")));
      }
    }
    if (target != nullptr && target->error_ != nullptr) break;
    prune(s, /*include_errored=*/target == nullptr);
    if (target == nullptr && s.chains.empty()) return;
    std::vector<std::shared_ptr<ChainWork>> to_post;
    for (auto& ch : s.chains) {
      if (ch->error_ != nullptr) continue;
      if (target != nullptr && !overlap_ && ch != target) continue;
      if (ch->outstanding_ == 0 && ch->next_phase_ < ch->phases_.size()) {
        to_post.push_back(ch);
      }
    }
    if (!to_post.empty()) {
      for (auto& ch : to_post) {
        try {
          post_next_phase(rank, ch);
        } catch (const RankLostError&) {
          // The error is stored on the chain. The waited-on chain rethrows
          // below; a bystander chain's owner observes it on its own wait(),
          // and a drain drops it like the engines' synchronize does.
          if (target != nullptr && ch == target) break;
        }
      }
      continue;
    }
    const std::uint64_t seen = s.gen;
    s.cond->wait([&s, seen] { return s.gen != seen; });
  }
  std::exception_ptr err = target->error_;
  s.chains.erase(std::remove(s.chains.begin(), s.chains.end(), target), s.chains.end());
  MCRDL_CHECK(err != nullptr) << "drive broke out without a stored error";
  std::rethrow_exception(err);
}

void OverlapScheduler::post_next_phase(int rank, const std::shared_ptr<ChainWork>& ch) {
  Slot& s = slot(rank);
  if (ch->done_ || ch->error_ != nullptr || ch->outstanding_ != 0 ||
      ch->next_phase_ >= ch->phases_.size()) {
    return;
  }
  ChainPhase phase = std::move(ch->phases_[ch->next_phase_]);
  ch->outstanding_ = kPosting;
  std::vector<Work> works;
  try {
    // Actor context: the phase posts async sub-ops and may legitimately
    // block (launch-delay injection sleeps in submit).
    works = phase();
  } catch (...) {
    ch->outstanding_ = 0;
    fail(*ch, std::current_exception());
    ++s.gen;
    s.cond->notify_all();
    throw;
  }
  ++ch->next_phase_;
  ch->outstanding_ = static_cast<int>(works.size());
  ++s.gen;
  // A sub-op that already completed fires its callback inline, here.
  for (auto& w : works) {
    w->on_complete([this, rank, weak = std::weak_ptr<ChainWork>(ch)] { part_done(rank, weak); });
  }
  if (works.empty()) maybe_complete(rank, ch);
  s.cond->notify_all();
}

Completion::Callbacks OverlapScheduler::complete(ChainWork& ch) {
  ch.error_ = nullptr;
  ch.phases_.clear();
  ch.finalize_ = nullptr;
  ch.recover_ = nullptr;
  ch.restore_ = nullptr;
  ch.complete_time_ = sched_->now();
  ch.done_ = true;
  return ch.completion_.fire();
}

void OverlapScheduler::part_done(int rank, const std::weak_ptr<ChainWork>& weak) {
  std::shared_ptr<ChainWork> ch = weak.lock();
  if (ch == nullptr) return;
  Slot& s = slot(rank);
  if (!ch->done_ && ch->error_ == nullptr && ch->outstanding_ > 0) --ch->outstanding_;
  ++s.gen;
  maybe_complete(rank, ch);
  s.cond->notify_all();
}

void OverlapScheduler::maybe_complete(int rank, const std::shared_ptr<ChainWork>& ch) {
  Slot& s = slot(rank);
  if (ch->done_ || ch->error_ != nullptr) return;
  if (ch->outstanding_ != 0 || ch->next_phase_ < ch->phases_.size()) return;
  // Finalize (slice-back copies — pure data movement, no virtual time)
  // first, so no observer sees done before the data is in place.
  if (auto finalize = std::exchange(ch->finalize_, nullptr)) finalize();
  Completion::Callbacks callbacks = complete(*ch);
  ++s.gen;
  // Completion observers (metrics, logger, tuner, chunk-group counting) may
  // re-enter on_complete of other works.
  for (auto& fn : callbacks) fn();
  s.cond->notify_all();
}

}  // namespace mcrdl::coll
