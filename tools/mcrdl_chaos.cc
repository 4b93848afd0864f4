// mcrdl_chaos — chaos-test the runtime's fault tolerance and print a
// resilience report.
//
// Runs the same allreduce workload twice on identical simulated clusters:
// once fault-free (the baseline) and once under an injected fault plan with
// retry/failover enabled. The tool then differentially compares every
// rank's final data against the baseline — failover is only worth anything
// if it produces *zero wrong results* — and prints what the fault layer
// did: injections, retries, breaker trips, reroutes, and the virtual-time
// cost of surviving.
//
// Scenarios with a permanent rank loss (`rank_loss`, or a plan file with
// rank_loss specs) flip the differential to elastic mode: the dead rank
// cannot match the baseline, so the check becomes "the planned ranks died,
// every survivor finished, and all survivors agree with each other".
//
// Scenario `rejoin` goes one step further: the lost rank is re-admitted at
// --rejoin-at (the elastic grow path), the workload runs a second phase over
// the restored full world, and the differential check asserts the world grew
// back to its original size with every rank agreeing on the final data.
//
//   ./tools/mcrdl_chaos --scenario=outage --at=2000            # kill nccl mid-run
//   ./tools/mcrdl_chaos --scenario=transient --p=0.3
//   ./tools/mcrdl_chaos --scenario=degrade --factor=8
//   ./tools/mcrdl_chaos --scenario=rank_loss --rank=3 --at=2500 --watchdog=100000
//   ./tools/mcrdl_chaos --scenario=rejoin --rank=3 --at=2500
//   ./tools/mcrdl_chaos --plan=my_chaos.txt --trace=chaos.json
//
// --checkpoint-out saves the post-run runtime checkpoint; --checkpoint-in
// restores one right after init (pair them with --iterations=0 for the CI
// save→restore→save byte-identity smoke).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/format.h"
#include "src/core/mcr_dl.h"

using namespace mcrdl;

namespace {

struct RunResult {
  std::vector<double> finals;  // per-rank final tensor value (0 if it died)
  std::vector<bool> died;      // rank exited before finishing the loop
  SimTime end_time_us = 0.0;
  SimTime comm_time_us = 0.0;  // rank 0's communication time
};

// The workload: `iters` spaced allreduces on the preferred backend. Every
// iteration multiplies the data by the world size, so any dropped or
// double-applied collective shows up in the differential check. A rank whose
// permanent loss instant has passed exits at the loop top; one whose
// collective surfaces RankLostError (the casualty itself — survivors get the
// op replayed transparently) exits through the catch.
RunResult run_workload(ClusterContext& cluster, McrDl& mcr, const std::string& backend,
                       int iters, std::size_t elems, SimTime interval_us) {
  RunResult out;
  out.finals.assign(cluster.world_size(), 0.0);
  out.died.assign(cluster.world_size(), false);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({static_cast<long long>(elems)}, DType::F32, 1.0,
                            cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) {
        out.died[rank] = true;
        return;
      }
      try {
        api.all_reduce(backend, t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        out.died[rank] = true;
        return;
      }
      if (interval_us > 0.0) cluster.scheduler().sleep_for(interval_us);
    }
    api.synchronize();
    out.finals[rank] = t.get(0);
  });
  out.end_time_us = cluster.scheduler().now();
  out.comm_time_us = mcr.logger().comm_time(0);
  return out;
}

fault::FaultPlan build_plan(const Flags& flags, const std::string& primary) {
  if (!flags.get("plan").empty()) return fault::FaultPlan::load(flags.get("plan"));
  fault::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const SimTime watchdog = flags.get_double("watchdog");
  if (watchdog > 0.0) plan.watchdog_deadline_us = watchdog;
  const std::string scenario = flags.get("scenario");
  if (scenario == "outage") {
    plan.specs.push_back(fault::FaultSpec::outage(primary, flags.get_double("at")));
  } else if (scenario == "transient") {
    plan.specs.push_back(fault::FaultSpec::transient(primary, flags.get_double("p")));
  } else if (scenario == "degrade") {
    plan.specs.push_back(fault::FaultSpec::degrade_links(primary, flags.get_double("factor"),
                                                         fault::LinkScope::InterNode));
  } else if (scenario == "straggler") {
    plan.specs.push_back(
        fault::FaultSpec::straggler(flags.get_int("rank"), flags.get_double("delay")));
  } else if (scenario == "rank_loss") {
    // Kill-at-virtual-time-T: the rank goes silent shortly before T (a
    // window wide enough to be sure the survivors are parked in a pending
    // rendezvous with it when the loss event fires — the state quiesce
    // drains), then is declared permanently lost at T.
    const int rank = flags.get_int("rank");
    const SimTime at = flags.get_double("at");
    const SimTime silent_from = std::max(0.0, at - 2.0 * flags.get_double("interval"));
    plan.specs.push_back(fault::FaultSpec::straggler(rank, 10.0 * at + 1000.0, silent_from));
    plan.specs.push_back(fault::FaultSpec::lose_rank(rank, at));
  } else if (scenario == "rejoin") {
    // rank_loss followed by grow-back: the same silent-window kill, with the
    // straggler bounded at the loss instant so the rank comes back healthy,
    // then a rank_rejoin at --rejoin-at (auto-placed far past the first
    // workload phase when 0, so the grow event fires into an idle cluster).
    const int rank = flags.get_int("rank");
    const SimTime at = flags.get_double("at");
    const SimTime interval = flags.get_double("interval");
    const SimTime silent_from = std::max(0.0, at - 2.0 * interval);
    SimTime back = flags.get_double("rejoin-at");
    if (back <= 0.0) {
      back = at + 100.0 * flags.get_int("iterations") * (interval + 1000.0);
    }
    MCRDL_REQUIRE(back > at, "--rejoin-at must be after the loss instant --at");
    plan.specs.push_back(
        fault::FaultSpec::straggler(rank, 10.0 * at + 1000.0, silent_from, at));
    plan.specs.push_back(fault::FaultSpec::lose_rank(rank, at));
    plan.specs.push_back(fault::FaultSpec::rejoin_rank(rank, back));
  } else if (scenario != "none") {
    throw InvalidArgument("unknown scenario: " + scenario +
                          " (want outage|transient|degrade|straggler|rank_loss|rejoin|none)");
  }
  return plan;
}

bool plan_has_rank_loss(const fault::FaultPlan& plan) {
  for (const fault::FaultSpec& s : plan.specs) {
    if (s.kind == fault::FaultKind::RankLoss) return true;
  }
  return false;
}

// Latest rejoin instant in the plan (0 when the plan has none).
SimTime plan_last_rejoin_us(const fault::FaultPlan& plan) {
  SimTime last = 0.0;
  for (const fault::FaultSpec& s : plan.specs) {
    if (s.kind == fault::FaultKind::RankRejoin) last = std::max(last, s.from_us);
  }
  return last;
}

// Two-phase workload for grow-back plans: phase one is the rank_loss
// workload (the casualty breaks out when declared lost, the survivors
// finish on the shrunk world), then every rank parks until just past the
// last rejoin instant — a virtual-time barrier, so the grow event fires
// into an idle cluster — and phase two runs the same loop over the restored
// full world. A full-world allreduce makes every participant's value equal,
// so the differential check is simply that all ranks finished phase two and
// agree.
RunResult run_rejoin_workload(ClusterContext& cluster, McrDl& mcr, const std::string& backend,
                              int iters, std::size_t elems, SimTime interval_us,
                              SimTime rejoin_us) {
  RunResult out;
  out.finals.assign(cluster.world_size(), 0.0);
  out.died.assign(cluster.world_size(), false);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({static_cast<long long>(elems)}, DType::F32, 1.0,
                            cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) {
        out.died[rank] = true;
        break;
      }
      try {
        api.all_reduce(backend, t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        out.died[rank] = true;
        break;
      }
      if (interval_us > 0.0) cluster.scheduler().sleep_for(interval_us);
    }
    const SimTime wake = rejoin_us + interval_us + 1.0;
    if (cluster.scheduler().now() < wake) {
      cluster.scheduler().sleep_for(wake - cluster.scheduler().now());
    }
    for (int i = 0; i < iters; ++i) {
      api.all_reduce(backend, t, ReduceOp::Sum);
      if (interval_us > 0.0) cluster.scheduler().sleep_for(interval_us);
    }
    api.synchronize();
    out.finals[rank] = t.get(0);
  });
  out.end_time_us = cluster.scheduler().now();
  out.comm_time_us = mcr.logger().comm_time(0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("system", "lassen", "node architecture: lassen | theta-gpu");
  flags.define("gpus", "8", "world size");
  flags.define("backends", "nccl,mv2-gdr", "preference order; first is the workload's choice");
  flags.define("iterations", "12", "allreduce iterations");
  flags.define("size", "4m", "message size per allreduce");
  flags.define("interval", "200", "virtual us between iterations");
  flags.define("scenario", "outage",
               "built-in plan: outage|transient|degrade|straggler|rank_loss|rejoin|none");
  flags.define("at", "1000", "fault instant in virtual us (scenario=outage|rank_loss|rejoin)");
  flags.define("rejoin-at", "0",
               "rejoin instant in virtual us (scenario=rejoin; 0 = auto, well past phase one)");
  flags.define("p", "0.3", "per-attempt failure probability (scenario=transient)");
  flags.define("factor", "4", "inter-node beta multiplier (scenario=degrade)");
  flags.define("rank", "1", "delayed or killed rank (scenario=straggler|rank_loss|rejoin)");
  flags.define("delay", "500", "per-op straggler delay in us (scenario=straggler)");
  flags.define("watchdog", "0", "rendezvous watchdog deadline in us (0 = off)");
  flags.define("seed", "42", "fault-decision seed");
  flags.define("plan", "", "load a fault plan file instead of a built-in scenario");
  flags.define("trace", "", "write a Chrome trace of the chaos run to this path");
  flags.define("checkpoint-out", "", "save the post-run runtime checkpoint to this path");
  flags.define("checkpoint-in", "", "restore a runtime checkpoint right after init");
  try {
    if (!flags.parse(argc, argv)) return 0;

    const int world = flags.get_int("gpus");
    const net::SystemConfig config = flags.get("system") == "lassen"
                                         ? net::SystemConfig::lassen((world + 3) / 4)
                                         : net::SystemConfig::theta_gpu((world + 7) / 8);
    const std::vector<std::string> backends = flags.get_list("backends");
    MCRDL_REQUIRE(!backends.empty(), "need at least one backend");
    const std::string primary = backends.front();
    const int iters = flags.get_int("iterations");
    const std::size_t elems = parse_size(flags.get("size")) / 4;  // f32
    const SimTime interval = flags.get_double("interval");

    const fault::FaultPlan plan = build_plan(flags, primary);
    std::printf("# chaos plan (%d GPUs on %s, %d x %s all_reduce on '%s')\n", world,
                config.name.c_str(), iters, flags.get("size").c_str(), primary.c_str());
    std::printf("%s\n", plan.serialize().c_str());

    // Grow-back plans (rank_loss + rank_rejoin) use the two-phase rejoin
    // workload and the world-restored differential check.
    const SimTime rejoin_at = plan_last_rejoin_us(plan);
    const bool rejoin_mode = plan_has_rank_loss(plan) && rejoin_at > 0.0;

    // --- baseline: identical workload, no faults -------------------------
    ClusterContext base_cluster(config);
    McrDlOptions base_opts;
    base_opts.logging_enabled = true;
    McrDl baseline(&base_cluster, base_opts);
    baseline.init(backends);
    const RunResult base =
        rejoin_mode
            ? run_rejoin_workload(base_cluster, baseline, primary, iters, elems, interval,
                                  rejoin_at)
            : run_workload(base_cluster, baseline, primary, iters, elems, interval);

    // --- chaos run --------------------------------------------------------
    ClusterContext cluster(config);
    McrDlOptions opts;
    opts.logging_enabled = true;
    opts.fault.enabled = true;
    opts.fault.plan = plan;
    McrDl mcr(&cluster, opts);
    mcr.init(backends);
    if (!flags.get("checkpoint-in").empty()) {
      mcr.checkpoint().restore_file(flags.get("checkpoint-in"));
      std::printf("checkpoint restored from %s\n", flags.get("checkpoint-in").c_str());
    }
    const RunResult chaos =
        rejoin_mode
            ? run_rejoin_workload(cluster, mcr, primary, iters, elems, interval, rejoin_at)
            : run_workload(cluster, mcr, primary, iters, elems, interval);

    // --- differential check ----------------------------------------------
    // Plans with a permanent rank loss use the elastic check: the planned
    // casualties must die (and nobody else), and every survivor must agree
    // with every other survivor — the baseline's full-world values are
    // unreachable after a shrink.
    const bool elastic = plan_has_rank_loss(plan);
    int wrong = 0;
    if (rejoin_mode) {
      // Every planned casualty must actually have died in phase one, the
      // world must have grown back to its original size, and every rank must
      // have finished phase two agreeing on the data (a full-world allreduce
      // equalises all participants, so disagreement means the rejoined rank
      // was left out).
      for (const fault::FaultSpec& s : plan.specs) {
        if (s.kind == fault::FaultKind::RankLoss && !chaos.died[s.rank]) ++wrong;
      }
      int alive = 0;
      for (int r = 0; r < world; ++r) {
        if (!cluster.faults().rank_lost(r)) ++alive;
      }
      if (alive != world) ++wrong;
      for (int r = 0; r < world; ++r) {
        if (chaos.finals[r] == 0.0) ++wrong;
        if (chaos.finals[r] != chaos.finals[0]) ++wrong;
      }
      const fault::ResilienceReport& rep = mcr.failover()->report();
      if (rep.ranks_rejoined == 0 || rep.grow_events == 0) ++wrong;
      std::printf("rejoin check: world %d/%d alive, rejoined %llu, grow events %llu\n", alive,
                  world, static_cast<unsigned long long>(rep.ranks_rejoined),
                  static_cast<unsigned long long>(rep.grow_events));
    } else if (elastic) {
      std::vector<int> died, survivors;
      for (int r = 0; r < world; ++r) (chaos.died[r] ? died : survivors).push_back(r);
      for (int r = 0; r < world; ++r) {
        const bool planned = cluster.faults().rank_lost(r);
        if (chaos.died[r] != planned) ++wrong;                      // wrong casualty set
      }
      if (survivors.empty()) ++wrong;                               // nobody finished
      for (int r : survivors) {
        if (chaos.finals[r] != chaos.finals[survivors.front()]) ++wrong;
        if (chaos.finals[r] == 0.0) ++wrong;                        // survivor lost its data
      }
      std::printf("ranks lost:");
      for (int r : died) std::printf(" %d", r);
      std::printf(" | survivors:");
      for (int r : survivors) std::printf(" %d", r);
      std::printf("\n");
    } else {
      for (int r = 0; r < world; ++r) {
        if (chaos.finals[r] != base.finals[r]) ++wrong;
      }
    }

    const fault::ResilienceReport& report = mcr.failover()->report();
    const fault::InjectionStats& stats = cluster.faults().stats();
    std::printf("== resilience report ==\n%s", report.to_string().c_str());
    std::printf("injected: %llu transient, %llu outage rejections, %llu watchdog timeouts\n",
                static_cast<unsigned long long>(stats.transient_injected),
                static_cast<unsigned long long>(stats.outage_rejections),
                static_cast<unsigned long long>(stats.watchdog_timeouts));
    if (stats.straggler_delays > 0) {
      std::printf("injected delay: %s over %llu launches\n",
                  format_time_us(stats.delay_injected_us).c_str(),
                  static_cast<unsigned long long>(stats.straggler_delays));
    }
    std::printf("virtual time: baseline %s, chaos %s (+%.1f%%)\n",
                format_time_us(base.end_time_us).c_str(),
                format_time_us(chaos.end_time_us).c_str(),
                base.end_time_us > 0.0
                    ? 100.0 * (chaos.end_time_us - base.end_time_us) / base.end_time_us
                    : 0.0);
    std::printf("rank-0 comm time: baseline %s, chaos %s\n",
                format_time_us(base.comm_time_us).c_str(),
                format_time_us(chaos.comm_time_us).c_str());

    // Where the traffic actually ran, per backend.
    std::map<std::string, int> ops_by_backend;
    int rerouted_records = 0;
    for (const auto& rec : mcr.logger().records()) {
      if (rec.rank != 0) continue;
      ops_by_backend[rec.backend]++;
      if (rec.rerouted) ++rerouted_records;
    }
    std::printf("rank-0 ops by backend:");
    for (const auto& [name, count] : ops_by_backend) std::printf(" %s=%d", name.c_str(), count);
    std::printf(" (%d rerouted)\n", rerouted_records);

    if (!flags.get("trace").empty()) {
      write_chrome_trace(mcr.logger(), flags.get("trace"));
      std::printf("trace written to %s (rerouted ops are highlighted)\n",
                  flags.get("trace").c_str());
    }

    if (!flags.get("checkpoint-out").empty()) {
      mcr.checkpoint().save_file(flags.get("checkpoint-out"));
      std::printf("checkpoint saved to %s\n", flags.get("checkpoint-out").c_str());
    }

    if (rejoin_mode) {
      std::printf("differential check: %s\n",
                  wrong == 0 ? "PASS — world grew back and all ranks agree"
                             : "FAIL — world did not grow back or ranks diverged");
    } else if (elastic) {
      std::printf("differential check: %s\n",
                  wrong == 0 ? "PASS — planned ranks died, all survivors agree"
                             : "FAIL — wrong casualty set or survivors diverged");
    } else {
      std::printf("differential check: %s\n",
                  wrong == 0 ? "PASS — all ranks match the fault-free run"
                             : "FAIL — ranks diverged from the fault-free run");
    }
    return wrong == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
