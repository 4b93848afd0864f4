#include "src/fault/injector.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/status.h"
#include "src/fault/recovery.h"

namespace mcrdl::fault {

const char* link_scope_name(LinkScope scope) {
  switch (scope) {
    case LinkScope::All: return "all";
    case LinkScope::IntraNode: return "intra";
    case LinkScope::InterNode: return "inter";
  }
  return "?";
}

// --- FaultSpec factories -----------------------------------------------------

FaultSpec FaultSpec::transient(std::string backend, double probability, SimTime from_us,
                               SimTime until_us) {
  MCRDL_REQUIRE(probability >= 0.0 && probability <= 1.0, "probability must be in [0, 1]");
  FaultSpec s;
  s.kind = FaultKind::Transient;
  s.backend = std::move(backend);
  s.probability = probability;
  s.from_us = from_us;
  s.until_us = until_us;
  return s;
}

FaultSpec FaultSpec::transient_op(std::string backend, OpType op, double probability,
                                  SimTime from_us, SimTime until_us) {
  FaultSpec s = transient(std::move(backend), probability, from_us, until_us);
  s.any_op = false;
  s.op = op;
  return s;
}

FaultSpec FaultSpec::outage(std::string backend, SimTime from_us) {
  MCRDL_REQUIRE(!backend.empty(), "an outage must name a backend");
  FaultSpec s;
  s.kind = FaultKind::Outage;
  s.backend = std::move(backend);
  s.from_us = from_us;
  return s;
}

FaultSpec FaultSpec::degrade_links(std::string backend, double beta_factor, LinkScope scope,
                                   SimTime from_us, SimTime until_us) {
  MCRDL_REQUIRE(beta_factor > 0.0, "degradation factor must be positive");
  FaultSpec s;
  s.kind = FaultKind::LinkDegradation;
  s.backend = std::move(backend);
  s.factor = beta_factor;
  s.scope = scope;
  s.from_us = from_us;
  s.until_us = until_us;
  return s;
}

FaultSpec FaultSpec::slow_rank(int rank, double scale, SimTime from_us, SimTime until_us) {
  MCRDL_REQUIRE(scale >= 1.0, "slowdown scale must be >= 1");
  FaultSpec s;
  s.kind = FaultKind::RankSlowdown;
  s.rank = rank;
  s.factor = scale;
  s.from_us = from_us;
  s.until_us = until_us;
  return s;
}

FaultSpec FaultSpec::straggler(int rank, SimTime delay_us, SimTime from_us, SimTime until_us) {
  MCRDL_REQUIRE(delay_us >= 0.0, "straggler delay must be >= 0");
  FaultSpec s;
  s.kind = FaultKind::Straggler;
  s.rank = rank;
  s.delay_us = delay_us;
  s.from_us = from_us;
  s.until_us = until_us;
  return s;
}

FaultSpec FaultSpec::lose_rank(int rank, SimTime at_us) {
  MCRDL_REQUIRE(rank >= 0, "rank_loss must name a concrete rank");
  MCRDL_REQUIRE(at_us >= 0.0, "rank_loss instant must be >= 0");
  FaultSpec s;
  s.kind = FaultKind::RankLoss;
  s.rank = rank;
  s.from_us = at_us;
  return s;
}

FaultSpec FaultSpec::rejoin_rank(int rank, SimTime at_us) {
  MCRDL_REQUIRE(rank >= 0, "rank_rejoin must name a concrete rank");
  MCRDL_REQUIRE(at_us >= 0.0, "rank_rejoin instant must be >= 0");
  FaultSpec s;
  s.kind = FaultKind::RankRejoin;
  s.rank = rank;
  s.from_us = at_us;
  return s;
}

// --- FaultPlan text format ---------------------------------------------------

namespace {

std::string time_token(SimTime t) {
  if (t == kNoEnd) return "inf";
  std::ostringstream out;
  out << t;
  return out.str();
}

SimTime parse_time_token(const std::string& tok) {
  if (tok == "inf") return kNoEnd;
  return std::stod(tok);
}

std::string backend_token(const std::string& backend) {
  return backend.empty() ? "*" : backend;
}

std::string parse_backend_token(const std::string& tok) { return tok == "*" ? "" : tok; }

[[noreturn]] void parse_fail(int line_no, const std::string& line, const std::string& why) {
  std::ostringstream out;
  out << "fault plan line " << line_no << ": " << why << " — \"" << line << "\"";
  throw InvalidArgument(out.str());
}

}  // namespace

std::string FaultPlan::serialize() const {
  std::ostringstream out;
  out << "seed " << seed << "\n";
  if (watchdog_deadline_us > 0.0) out << "watchdog " << watchdog_deadline_us << "\n";
  for (const FaultSpec& s : specs) {
    switch (s.kind) {
      case FaultKind::Transient:
        out << "transient " << backend_token(s.backend) << " " << (s.any_op ? "*" : op_name(s.op))
            << " " << s.probability << " " << time_token(s.from_us) << " "
            << time_token(s.until_us) << "\n";
        break;
      case FaultKind::Outage:
        out << "outage " << s.backend << " " << s.from_us << "\n";
        break;
      case FaultKind::LinkDegradation:
        out << "degrade " << backend_token(s.backend) << " " << link_scope_name(s.scope) << " "
            << s.factor << " " << time_token(s.from_us) << " " << time_token(s.until_us) << "\n";
        break;
      case FaultKind::RankSlowdown:
        out << "slowdown " << s.rank << " " << s.factor << " " << time_token(s.from_us) << " "
            << time_token(s.until_us) << "\n";
        break;
      case FaultKind::Straggler:
        out << "straggler " << s.rank << " " << s.delay_us << " " << time_token(s.from_us) << " "
            << time_token(s.until_us) << "\n";
        break;
      case FaultKind::RankLoss:
        out << "rank_loss " << s.rank << " " << s.from_us << "\n";
        break;
      case FaultKind::RankRejoin:
        out << "rank_rejoin " << s.rank << " " << s.from_us << "\n";
        break;
    }
  }
  return out.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb)) continue;  // blank / comment-only line

    std::vector<std::string> toks;
    std::string tok;
    while (fields >> tok) toks.push_back(tok);
    auto window = [&](std::size_t i, FaultSpec& s) {
      if (toks.size() > i) s.from_us = parse_time_token(toks[i]);
      if (toks.size() > i + 1) s.until_us = parse_time_token(toks[i + 1]);
    };

    try {
      if (verb == "seed") {
        if (toks.size() != 1) parse_fail(line_no, line, "seed takes one value");
        plan.seed = std::stoull(toks[0]);
      } else if (verb == "watchdog") {
        if (toks.size() != 1) parse_fail(line_no, line, "watchdog takes one deadline (us)");
        plan.watchdog_deadline_us = std::stod(toks[0]);
      } else if (verb == "transient") {
        if (toks.size() < 3 || toks.size() > 5)
          parse_fail(line_no, line, "expected: transient <backend|*> <op|*> <p> [from] [until]");
        FaultSpec s;
        if (toks[1] == "*") {
          s = FaultSpec::transient(parse_backend_token(toks[0]), std::stod(toks[2]));
        } else {
          OpType op;
          if (!op_from_name(toks[1], op)) parse_fail(line_no, line, "unknown op \"" + toks[1] + "\"");
          s = FaultSpec::transient_op(parse_backend_token(toks[0]), op, std::stod(toks[2]));
        }
        window(3, s);
        plan.specs.push_back(std::move(s));
      } else if (verb == "outage") {
        if (toks.size() != 2) parse_fail(line_no, line, "expected: outage <backend> <from_us>");
        plan.specs.push_back(FaultSpec::outage(toks[0], std::stod(toks[1])));
      } else if (verb == "degrade") {
        if (toks.size() < 3 || toks.size() > 5)
          parse_fail(line_no, line,
                     "expected: degrade <backend|*> <all|intra|inter> <factor> [from] [until]");
        LinkScope scope;
        if (toks[1] == "all") scope = LinkScope::All;
        else if (toks[1] == "intra") scope = LinkScope::IntraNode;
        else if (toks[1] == "inter") scope = LinkScope::InterNode;
        else parse_fail(line_no, line, "unknown link scope \"" + toks[1] + "\"");
        FaultSpec s = FaultSpec::degrade_links(parse_backend_token(toks[0]), std::stod(toks[2]), scope);
        window(3, s);
        plan.specs.push_back(std::move(s));
      } else if (verb == "slowdown") {
        if (toks.size() < 2 || toks.size() > 4)
          parse_fail(line_no, line, "expected: slowdown <rank> <scale> [from] [until]");
        FaultSpec s = FaultSpec::slow_rank(std::stoi(toks[0]), std::stod(toks[1]));
        window(2, s);
        plan.specs.push_back(std::move(s));
      } else if (verb == "straggler") {
        if (toks.size() < 2 || toks.size() > 4)
          parse_fail(line_no, line, "expected: straggler <rank> <delay_us> [from] [until]");
        FaultSpec s = FaultSpec::straggler(std::stoi(toks[0]), std::stod(toks[1]));
        window(2, s);
        plan.specs.push_back(std::move(s));
      } else if (verb == "rank_loss") {
        if (toks.size() != 2) parse_fail(line_no, line, "expected: rank_loss <rank> <at_us>");
        plan.specs.push_back(FaultSpec::lose_rank(std::stoi(toks[0]), std::stod(toks[1])));
      } else if (verb == "rank_rejoin") {
        if (toks.size() != 2) parse_fail(line_no, line, "expected: rank_rejoin <rank> <at_us>");
        plan.specs.push_back(FaultSpec::rejoin_rank(std::stoi(toks[0]), std::stod(toks[1])));
      } else {
        parse_fail(line_no, line, "unknown directive \"" + verb + "\"");
      }
    } catch (const InvalidArgument&) {
      throw;
    } catch (const std::exception& e) {  // std::stod / std::stoull failures
      parse_fail(line_no, line, e.what());
    }
  }
  return plan;
}

void FaultPlan::save(const std::string& path) const {
  std::ofstream out(path);
  MCRDL_REQUIRE(out.good(), "cannot open fault plan for writing: " + path);
  out << serialize();
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  MCRDL_REQUIRE(in.good(), "cannot open fault plan: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

// --- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(sim::Scheduler* sched) : sched_(sched) {
  MCRDL_CHECK(sched_ != nullptr) << "FaultInjector needs a scheduler for virtual time";
  recovery_ = std::make_unique<RecoveryManager>(sched_, this);
}

FaultInjector::~FaultInjector() = default;

void FaultInjector::configure(FaultPlan plan) {
  plan_ = std::move(plan);
  rng_ = Rng(plan_.seed);
  stats_ = InjectionStats{};
  enabled_ = true;
  // A new plan starts recovery from scratch; McrDl::init re-arms it when the
  // plan declares rank losses.
  recovery_->disarm();
}

void FaultInjector::reset() {
  plan_ = FaultPlan{};
  stats_ = InjectionStats{};
  enabled_ = false;
  recovery_->disarm();
}

bool FaultInjector::backend_unavailable(const std::string& backend) const {
  if (!enabled_) return false;
  const SimTime t = now();
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::Outage && s.matches_backend(backend) && t >= s.from_us) return true;
  }
  return false;
}

bool FaultInjector::should_fail(const std::string& backend, OpType op) {
  if (!enabled_) return false;
  const SimTime t = now();
  // Combine independent matching specs: P(fail) = 1 - Π(1 - p_i). The rng is
  // consumed exactly once per op with at least one active matching spec, so
  // the decision sequence depends only on (seed, op sequence), not on time.
  double survive = 1.0;
  bool any = false;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind != FaultKind::Transient) continue;
    if (!s.matches_backend(backend) || !s.matches_op(op) || !s.active_at(t)) continue;
    any = true;
    survive *= 1.0 - s.probability;
  }
  if (!any) return false;
  return rng_.next_double() < 1.0 - survive;
}

BetaScale FaultInjector::link_beta_scale(const std::string& backend, OpType op) const {
  BetaScale scale;
  if (!enabled_) return scale;
  (void)op;  // degradation is link-level, not op-level, but kept for symmetry
  const SimTime t = now();
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind != FaultKind::LinkDegradation) continue;
    if (!s.matches_backend(backend) || !s.active_at(t)) continue;
    // factor multiplies β (time per byte): factor > 1 slows the link down.
    if (s.scope == LinkScope::All || s.scope == LinkScope::IntraNode) scale.intra *= s.factor;
    if (s.scope == LinkScope::All || s.scope == LinkScope::InterNode) scale.inter *= s.factor;
  }
  return scale;
}

double FaultInjector::rank_launch_scale(int global_rank) const {
  if (!enabled_) return 1.0;
  const SimTime t = now();
  double scale = 1.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind != FaultKind::RankSlowdown) continue;
    if (s.rank != -1 && s.rank != global_rank) continue;
    if (!s.active_at(t)) continue;
    scale *= s.factor;
  }
  return scale;
}

bool FaultInjector::rank_lost(int global_rank) const {
  if (!enabled_) return false;
  const SimTime t = now();
  // The latest event whose instant has passed decides; a rejoin at the same
  // instant as a loss wins the tie (loss-then-rejoin at t is "alive at t"),
  // independent of spec order in the plan.
  SimTime best = -1.0;
  bool lost = false;
  for (const FaultSpec& s : plan_.specs) {
    if (s.rank != global_rank || t < s.from_us) continue;
    if (s.kind == FaultKind::RankLoss) {
      if (s.from_us > best) {
        best = s.from_us;
        lost = true;
      }
    } else if (s.kind == FaultKind::RankRejoin) {
      if (s.from_us >= best) {
        best = s.from_us;
        lost = false;
      }
    }
  }
  return lost;
}

std::vector<int> FaultInjector::lost_members(const std::vector<int>& global_ranks) const {
  std::vector<int> out;
  if (!enabled_) return out;
  for (int r : global_ranks) {
    if (rank_lost(r)) out.push_back(r);
  }
  return out;
}

bool FaultInjector::has_rank_loss() const {
  if (!enabled_) return false;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::RankLoss) return true;
  }
  return false;
}

bool FaultInjector::has_rank_rejoin() const {
  if (!enabled_) return false;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::RankRejoin) return true;
  }
  return false;
}

SimTime FaultInjector::rank_delay(int global_rank) const {
  if (!enabled_) return 0.0;
  const SimTime t = now();
  SimTime delay = 0.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind != FaultKind::Straggler) continue;
    if (s.rank != -1 && s.rank != global_rank) continue;
    if (!s.active_at(t)) continue;
    delay += s.delay_us;
  }
  return delay;
}

}  // namespace mcrdl::fault
