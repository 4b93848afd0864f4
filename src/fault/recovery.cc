#include "src/fault/recovery.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/common/status.h"
#include "src/fault/injector.h"
#include "src/obs/metrics.h"

namespace mcrdl::fault {

std::string describe_rank_loss(OpType op, const std::string& backend,
                               const std::vector<int>& lost_global) {
  std::ostringstream out;
  out << "rank loss: " << op_name(op) << " on backend '" << backend
      << "' involves permanently lost ranks: [";
  for (std::size_t i = 0; i < lost_global.size(); ++i) {
    if (i > 0) out << ", ";
    out << lost_global[i];
  }
  out << "]; retriable on the shrunk communicator once recovery completes";
  return out.str();
}

RecoveryManager::RecoveryManager(sim::Scheduler* sched, FaultInjector* injector)
    : sched_(sched), injector_(injector), epoch_cond_(sched) {
  MCRDL_CHECK(sched_ != nullptr) << "RecoveryManager needs a scheduler";
  MCRDL_CHECK(injector_ != nullptr) << "RecoveryManager needs its owning injector";
}

void RecoveryManager::arm(int world_size) {
  disarm();
  MCRDL_REQUIRE(world_size >= 1, "recovery world size must be >= 1");
  world_size_ = world_size;
  survivors_.clear();
  for (int r = 0; r < world_size_; ++r) survivors_.push_back(r);
  lost_.clear();
  epoch_ = 0;
  stats_ = RecoveryStats{};
  grow_drained_.clear();
  // Group the plan's rank_loss/rank_rejoin specs by instant: every spec
  // sharing a from_us is one combined event (a node dying or returning takes
  // all its ranks at once and costs one epoch, not one per rank). Losses at
  // t=0 are warm spares: excluded here, synchronously, so the first op of
  // the run already maps onto the shrunk world instead of failing into a
  // recovery wait that nothing would ever satisfy.
  struct Planned {
    std::vector<int> losses;
    std::vector<int> rejoins;
  };
  std::map<SimTime, Planned> by_instant;
  std::vector<int> spares;
  for (const FaultSpec& s : injector_->plan().specs) {
    if (s.kind == FaultKind::RankLoss) {
      MCRDL_REQUIRE(s.rank >= 0 && s.rank < world_size_, "rank_loss rank out of range");
      if (s.from_us == 0.0) {
        spares.push_back(s.rank);
      } else {
        by_instant[s.from_us].losses.push_back(s.rank);
      }
    } else if (s.kind == FaultKind::RankRejoin) {
      MCRDL_REQUIRE(s.rank >= 0 && s.rank < world_size_, "rank_rejoin rank out of range");
      by_instant[s.from_us].rejoins.push_back(s.rank);
    }
  }
  if (by_instant.empty() && spares.empty()) return;  // nothing elastic: stay disarmed
  armed_ = true;
  if (!spares.empty()) {
    std::set<int> uniq(spares.begin(), spares.end());
    for (int r : uniq) lost_.insert(r);
    survivors_.erase(std::remove_if(survivors_.begin(), survivors_.end(),
                                    [&](int r) { return lost_.count(r) > 0; }),
                     survivors_.end());
    stats_.ranks_lost += uniq.size();
    // One epoch bump (not counted as a recovery cycle) so the pipeline's
    // recover stage remaps groups onto the survivors from the first op on.
    ++epoch_;
  }
  for (auto& [at, ev] : by_instant) {
    loss_events_.push_back(sched_->schedule_at(
        at, [this, losses = ev.losses, rejoins = ev.rejoins] {
          // Loss first: a loss and a rejoin at the same instant observe the
          // same order as FaultInjector::rank_lost's tie rule (rejoin wins).
          if (!losses.empty()) on_rank_loss(losses);
          if (!rejoins.empty()) on_rank_rejoin(rejoins);
        }));
  }
  push_report();
}

void RecoveryManager::disarm() {
  for (std::uint64_t id : loss_events_) sched_->cancel(id);
  loss_events_.clear();
  armed_ = false;
  phase_ = RecoveryPhase::Idle;
  epoch_ = 0;
  lost_.clear();
  survivors_.clear();
  world_size_ = 0;
  report_ = nullptr;
  metrics_ = nullptr;
  grow_drained_.clear();
  // drains_/grows_ survive: engines register for their own lifetime, not a
  // plan's.
}

std::vector<int> RecoveryManager::shrink_group(const std::vector<int>& members) const {
  std::vector<int> out;
  out.reserve(members.size());
  for (int r : members) {
    if (lost_.count(r) == 0) out.push_back(r);
  }
  return out;
}

std::uint64_t RecoveryManager::register_drain(DrainFn fn) {
  MCRDL_CHECK(fn != nullptr);
  const std::uint64_t id = next_drain_id_++;
  drains_[id] = std::move(fn);
  return id;
}

void RecoveryManager::unregister_drain(std::uint64_t id) { drains_.erase(id); }

std::uint64_t RecoveryManager::register_grow(std::string backend, GrowFn fn) {
  MCRDL_CHECK(fn != nullptr);
  const std::uint64_t id = next_drain_id_++;
  grows_[id] = GrowHook{std::move(backend), std::move(fn)};
  return id;
}

void RecoveryManager::unregister_grow(std::uint64_t id) { grows_.erase(id); }

void RecoveryManager::on_rank_loss(const std::vector<int>& ranks) {
  std::vector<int> newly;
  for (int r : ranks) {
    if (lost_.count(r) == 0) newly.push_back(r);
  }
  if (newly.empty()) return;
  // Quiesce: drain against the *cumulative* lost set, so an op straddling
  // two loss instants is cancelled even if only the earlier casualty is in
  // its membership.
  std::vector<int> all_lost(lost_.begin(), lost_.end());
  all_lost.insert(all_lost.end(), newly.begin(), newly.end());
  std::sort(all_lost.begin(), all_lost.end());
  phase_ = RecoveryPhase::Quiesce;
  for (auto& [id, fn] : drains_) stats_.quiesced_ops += fn(all_lost);
  // Shrink: survivors and the epoch advance atomically (under the baton).
  phase_ = RecoveryPhase::Shrink;
  for (int r : newly) lost_.insert(r);
  survivors_.erase(std::remove_if(survivors_.begin(), survivors_.end(),
                                  [&](int r) { return lost_.count(r) > 0; }),
                   survivors_.end());
  stats_.ranks_lost += newly.size();
  ++epoch_;
  ++stats_.epochs;
  // Resume: epoch waiters (parked replays) wake into the new epoch.
  phase_ = RecoveryPhase::Resume;
  push_report();
  epoch_cond_.notify_all();
}

void RecoveryManager::on_rank_rejoin(const std::vector<int>& ranks) {
  std::vector<int> newly;
  std::set<int> seen;
  for (int r : ranks) {
    if (lost_.count(r) > 0 && seen.insert(r).second) {
      newly.push_back(r);
    } else {
      // Never lost, already rejoined, or a duplicate within this event.
      ++stats_.rejoins_rejected;
      if (metrics_ != nullptr) metrics_->counter("recovery_grow_rejects").inc();
    }
  }
  if (newly.empty()) {
    push_report();
    return;
  }
  std::sort(newly.begin(), newly.end());
  // Quiesce: grow hooks reset communicator sequencing/matching state wherever
  // membership includes a returning rank — the full-world communicators
  // drifted while the rank was dead (survivors consumed sequence numbers on
  // doomed joins that the dead rank never saw), so their pending work is
  // cancelled for replay and counters restart aligned at zero.
  phase_ = RecoveryPhase::Quiesce;
  for (auto& [id, hook] : grows_) {
    const std::uint64_t n = hook.fn(newly);
    if (n > 0) {
      grow_drained_[hook.backend] += n;
      stats_.quiesced_ops += n;
      if (metrics_ != nullptr)
        metrics_->counter("recovery_grow_drained", {{"backend", hook.backend}}).inc(n);
    }
  }
  // Grow: the lost set shrinks, survivors regain the ranks, and the epoch
  // advances atomically (under the baton) — in-flight ops stamped with the
  // old epoch are stale-rejected and replayed on the enlarged world, exactly
  // the shrink discipline run in reverse.
  phase_ = RecoveryPhase::Grow;
  for (int r : newly) lost_.erase(r);
  survivors_.insert(survivors_.end(), newly.begin(), newly.end());
  std::sort(survivors_.begin(), survivors_.end());
  stats_.ranks_rejoined += newly.size();
  ++stats_.grow_events;
  ++epoch_;
  ++stats_.epochs;
  if (metrics_ != nullptr) {
    metrics_->counter("recovery_grow_events").inc();
    metrics_->counter("recovery_grow_ranks_rejoined").inc(newly.size());
  }
  // Resume: epoch waiters (parked replays) wake into the grown epoch.
  phase_ = RecoveryPhase::Resume;
  push_report();
  epoch_cond_.notify_all();
}

void RecoveryManager::wait_epoch_past(std::uint64_t epoch) {
  epoch_cond_.wait([&] { return epoch_ > epoch; });
}

void RecoveryManager::note_recovered() {
  ++stats_.recovered_ops;
  push_report();
}

void RecoveryManager::note_stale_rejection() {
  ++stats_.stale_rejections;
  push_report();
}

void RecoveryManager::bind_report(ResilienceReport* report) {
  report_ = report;
  push_report();
}

void RecoveryManager::bind_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

std::string RecoveryManager::save_state() const {
  std::ostringstream out;
  out << "world " << world_size_ << "\n";
  out << "epoch " << epoch_ << "\n";
  out << "lost";
  for (int r : lost_) out << " " << r;
  out << "\n";
  out << "stats " << stats_.ranks_lost << " " << stats_.epochs << " " << stats_.quiesced_ops
      << " " << stats_.recovered_ops << " " << stats_.stale_rejections << " "
      << stats_.ranks_rejoined << " " << stats_.grow_events << " " << stats_.rejoins_rejected
      << "\n";
  return out.str();
}

void RecoveryManager::restore_state(const std::string& body) {
  int world = 0;
  std::uint64_t epoch = 0;
  std::set<int> lost;
  RecoveryStats stats;
  bool saw_world = false, saw_epoch = false, saw_lost = false, saw_stats = false;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb)) continue;
    if (verb == "world") {
      MCRDL_REQUIRE(static_cast<bool>(fields >> world) && world >= 1,
                    "recovery checkpoint: bad world line");
      saw_world = true;
    } else if (verb == "epoch") {
      MCRDL_REQUIRE(static_cast<bool>(fields >> epoch), "recovery checkpoint: bad epoch line");
      saw_epoch = true;
    } else if (verb == "lost") {
      int r;
      while (fields >> r) lost.insert(r);
      saw_lost = true;
    } else if (verb == "stats") {
      MCRDL_REQUIRE(
          static_cast<bool>(fields >> stats.ranks_lost >> stats.epochs >> stats.quiesced_ops >>
                            stats.recovered_ops >> stats.stale_rejections >>
                            stats.ranks_rejoined >> stats.grow_events >> stats.rejoins_rejected),
          "recovery checkpoint: bad stats line");
      saw_stats = true;
    } else {
      throw InvalidArgument("recovery checkpoint: unknown line \"" + line + "\"");
    }
  }
  MCRDL_REQUIRE(saw_world && saw_epoch && saw_lost && saw_stats,
                "recovery checkpoint: missing world/epoch/lost/stats line");
  for (int r : lost)
    MCRDL_REQUIRE(r >= 0 && r < world, "recovery checkpoint: lost rank out of range");
  world_size_ = world;
  epoch_ = epoch;
  lost_ = std::move(lost);
  survivors_.clear();
  for (int r = 0; r < world_size_; ++r) {
    if (lost_.count(r) == 0) survivors_.push_back(r);
  }
  const std::uint64_t restores = stats_.checkpoint_restores + 1;
  stats_ = stats;
  stats_.checkpoint_restores = restores;
  armed_ = true;
  if (metrics_ != nullptr) metrics_->counter("recovery_checkpoint_restores").inc();
  push_report();
  epoch_cond_.notify_all();
}

void RecoveryManager::push_report() {
  if (report_ == nullptr) return;
  report_->ranks_lost = stats_.ranks_lost;
  report_->epochs = stats_.epochs;
  report_->recovered = stats_.recovered_ops;
  report_->stale_rejections = stats_.stale_rejections;
  report_->ranks_rejoined = stats_.ranks_rejoined;
  report_->grow_events = stats_.grow_events;
  report_->checkpoint_restores = stats_.checkpoint_restores;
  for (const auto& [backend, drained] : grow_drained_)
    report_->by_backend[backend].grow_drained = drained;
}

}  // namespace mcrdl::fault
