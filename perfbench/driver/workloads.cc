#include "driver/workloads.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "driver/host.h"
#include "driver/spans.h"
#include "src/backends/backend.h"
#include "src/core/mcr_dl.h"
#include "src/models/moe.h"
#include "src/models/workload.h"
#include "src/sched/arrival.h"
#include "src/sched/serve.h"

namespace perfbench {

using namespace mcrdl;

namespace {

// Backends the tuning tables choose between; per-backend metrics use these.
const std::vector<std::string> kBackends = {"nccl", "mv2-gdr"};
// Host-synchronised backend for the loop's cycle-closing barrier.
const char* const kBarrierBackend = "mv2-gdr";
// Built-in pipeline stages in request order; one probe span each.
const std::vector<std::string> kStages = {"overhead", "resolve", "fusion", "compression", "finish",
                                          "recover",  "coll",    "route",  "issue"};
// Span around each host wait in the workloads' own loops.
const char* const kSyncSpan = "synchronize";
// Spans kept verbatim for the spans file (the rest are only folded).
constexpr std::size_t kKeptSpans = 50000;
// Upper limit on timed set-up passes (cheap set-ups stop here).
constexpr int kMaxSetupPasses = 31;
// Co-tenant load on a shared host only ever slows a sample down, and the
// fast end of a run's distribution moves far less between processes than its
// middle; throughput reads both distributions at their fast end.
constexpr double kFastEnd = 0.1;
// setup_s is reported in seconds of a host whose reference unit takes this
// long, about what it takes on the development host.
constexpr double kReferenceUnitS = 1e-3;

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.next_below(i))]);
  }
}

// --- counters read from the cluster's public registries ----------------------

struct Counters {
  std::map<std::string, double> ops;    // collectives issued per backend, barriers excluded
  std::map<std::string, double> bytes;  // payload bytes issued per backend
  double link_intra = 0.0;              // bytes over NVLink
  double link_inter = 0.0;              // bytes over the NICs
  double events = 0.0;                  // scheduler timed events fired

  static Counters read(ClusterContext& cluster) {
    Counters c;
    const obs::MetricsRegistry& m = cluster.metrics();
    for (const std::string& b : kBackends) {
      double ops = 0.0;
      for (int op = 0; op < static_cast<int>(OpType::Barrier); ++op) {
        ops += static_cast<double>(m.counter_value(
            "comm_ops", {{"backend", b}, {"op", op_name(static_cast<OpType>(op))}}));
      }
      c.ops[b] = ops;
      c.bytes[b] = static_cast<double>(m.counter_value("comm_bytes", {{"backend", b}}));
    }
    c.link_intra = static_cast<double>(cluster.link_usage().intra().bytes);
    c.link_inter = static_cast<double>(cluster.link_usage().inter().bytes);
    c.events = static_cast<double>(cluster.scheduler().events_fired());
    return c;
  }

  Counters operator-(const Counters& before) const {
    Counters d = *this;
    for (auto& [b, v] : d.ops) v -= before.ops.at(b);
    for (auto& [b, v] : d.bytes) v -= before.bytes.at(b);
    d.link_intra -= before.link_intra;
    d.link_inter -= before.link_inter;
    d.events -= before.events;
    return d;
  }

  double get(const std::map<std::string, double>& totals, const std::string& b) const {
    const auto it = totals.find(b);
    return it == totals.end() ? 0.0 : it->second;
  }
  double total(const std::map<std::string, double>& totals) const {
    double t = 0.0;
    for (const auto& [b, v] : totals) t += v;
    return t;
  }
};

// One measured loop. Totals cover the whole loop, warm-up included, so the
// ratios between them are consistent; `rates` holds only timed samples.
struct Sampled {
  std::vector<double> rates;          // work items per process CPU second, one per sample
  std::vector<double> ref_s;          // reference_unit_cpu_s() run after each sample
  std::vector<double> cycle_virtual;  // virtual µs of each timed cycle
  double wall_s = 0.0;
  Usage usage;
  double steps = 0.0;  // cycles / replays run, warm-up included
  double ops = 0.0;    // collectives summed over ranks (serve: jobs replayed)
  Counters counters;   // deltas over the loop (communication workloads)
};

// Work items per reference unit: the fast end of the per-sample rates (items
// per CPU second) times the fast end of the reference unit's CPU seconds,
// measured on the same thread right after each sample. Dividing by the
// host's own speed at the time cancels the slow drift of a shared host.
double throughput(const Sampled& s) {
  return quantile(s.rates, 1.0 - kFastEnd) * quantile(s.ref_s, kFastEnd);
}

// Everything the per-layer metrics are computed from.
struct LayerInputs {
  Sampled plain;   // untraced half of the traced run
  Sampled traced;  // probed half
  const SpanRecorder* spans = nullptr;
  double probe_us = 0.0;         // probe cost inside each span that has a child
  double steps_per_cycle = 1.0;  // sync windows per cycle (the "step" of per-step metrics)
  double arena_slots = 0.0;
  bool models_layer = false;     // moe256 only
  double virtual_step_us = 0.0;
  double compute_us_per_step = 0.0;
  std::map<std::string, double> comm_us_per_step;
  double table_gen_s = 0.0;
  double cache_fill_s = 0.0;
  double cache_entries = 0.0;
  double replay_cpu_us_per_job = 0.0;
};

// --- the workload interface --------------------------------------------------

class Bench {
 public:
  virtual ~Bench() = default;
  // Drops the previous set-up pass's state (not timed).
  virtual void teardown() = 0;
  // One complete set-up pass: everything a user pays before the first op.
  virtual void build() = 0;
  // Measured loop of about `seconds`; probes are live once install() ran.
  virtual Sampled run(double seconds, Checks& checks, SpanRecorder* spans) = 0;
  virtual std::vector<std::string> span_names() const {
    std::vector<std::string> names = kStages;
    names.emplace_back(kSyncSpan);
    return names;
  }
  virtual void install(SpanRecorder& spans) = 0;
  // Per-layer inputs beyond the two samples (call after both loops).
  virtual void fill_layers(LayerInputs& in) = 0;
  const Anchors& anchors() const { return anchors_; }

 protected:
  Anchors anchors_;
};

// Shared shape of the three communication workloads: a tuning table, one
// cluster and runtime, and an SPMD loop of "cycles" separated by a
// host-synchronised barrier. Rank 0 decides whether to stop before the
// barrier; every rank reads the decision after it, so all ranks run the same
// number of cycles. The barrier aligns the ranks, so a cycle's virtual
// duration depends only on the workload, the seed and the cycle's position.
class CommBench : public Bench {
 public:
  void teardown() override { drop_runtime(); }

  void build() override {
    const double t0 = wall_s();
    TuningSuite suite(system());
    table_ = suite.generate(tuning_config());
    table_gen_s_.push_back(wall_s() - t0);
    build_runtime();
  }

  void install(SpanRecorder& spans) override {
    spans_ = &spans;
    install_probes(*mcr_, spans);
  }

  Sampled run(double seconds, Checks& checks, SpanRecorder*) override {
    Sampled out = loop(seconds, 0, checks);
    spans_ = nullptr;  // the probes leave with this runtime
    arena_slots_ = static_cast<double>(mcr_->pipeline().arena_slots());
    // Routing: per-backend ops per cycle are what the table says.
    const Anchors expected = expected_ops_per_cycle();
    Anchors got;
    for (const auto& [name, v] : expected) {
      got[name] = safe_div(out.counters.get(out.counters.ops, name.substr(name.find('.') + 1)),
                           out.steps);
    }
    check_anchors(expected, got, "routing", checks);
    for (const auto& [name, v] : got) anchors_[name] = v;
    verify_cycles(out, checks);
    // A cluster runs one SPMD program in its lifetime (a second run_spmd
    // would restart the first one's actors), so the next loop gets a fresh
    // runtime, built here outside any timing.
    drop_runtime();
    build_runtime();
    return out;
  }

 protected:
  // Runs a host wait, inside a "synchronize" span once probes are installed.
  template <typename Wait>
  void synchronize(Wait&& wait) {
    if (spans_ == nullptr) {
      wait();
      return;
    }
    spans_->open(static_cast<std::uint32_t>(kStages.size()));
    struct Closer {
      SpanRecorder* spans;
      ~Closer() { spans->close(); }
    } closer{spans_};
    wait();
  }

  // Per-rank hooks: `cycle` runs one cycle on a rank; on rank 0, `start`
  // runs once the warm-up cycle's barrier returned and `after` once each
  // timed cycle's barrier returned.
  struct CycleHooks {
    std::function<void(int rank, Api& api)> cycle;
    std::function<void()> start;
    std::function<void(double virtual_us)> after;
  };

  virtual net::SystemConfig system() const = 0;
  virtual TuningConfig tuning_config() const = 0;
  // Cluster, runtime and whatever per-rank state the cycles use.
  virtual void build_runtime() = 0;
  virtual void drop_runtime() {
    mcr_.reset();
    cluster_.reset();
  }
  virtual CycleHooks hooks(int rank, Checks& checks) = 0;
  virtual double ops_per_cycle() const = 0;  // collectives summed over ranks
  virtual int min_cycles() const = 0;
  // "ops_per_cycle.<backend>" -> expected count; empty = no routing check.
  virtual Anchors expected_ops_per_cycle() const { return {}; }
  // Checks every timed cycle's virtual duration. The default replays the
  // first min_cycles() cycles on a fresh runtime and demands the same
  // durations: the op mix and the backends' stream round-robin make cycle
  // lengths vary by position, but never by host timing.
  virtual void verify_cycles(const Sampled& measured, Checks& checks) {
    drop_runtime();
    build_runtime();
    const Sampled ref = loop(0.0, min_cycles(), checks);
    double first_us = 0.0;
    for (int i = 0; i < min_cycles(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      const double want = k < ref.cycle_virtual.size() ? ref.cycle_virtual[k] : -1.0;
      const double got = k < measured.cycle_virtual.size() ? measured.cycle_virtual[k] : -2.0;
      check_anchors({{"virtual_cycle_us", want}}, {{"virtual_cycle_us", got}},
                    "cycle " + std::to_string(i) + " against a fresh replay", checks);
      first_us += got;
    }
    anchors_["virtual_us_first_cycles"] = first_us;
    virtual_cycle_us_ = safe_div(first_us, min_cycles());
  }

  // Warm-up cycle, then timed cycles: for about `seconds` (at least
  // min_cycles()), or exactly `fixed_cycles` when that is positive.
  Sampled loop(double seconds, int fixed_cycles, Checks& checks) {
    ClusterContext& cluster = *cluster_;
    const double ops = ops_per_cycle();
    const int min = fixed_cycles > 0 ? fixed_cycles : min_cycles();
    Sampled out;
    const Counters before = Counters::read(cluster);
    const Usage u0 = Usage::now();
    const double w0 = wall_s();
    bool stop = false;
    int cycles = 0;
    try {
      cluster.run_spmd([&](int rank) {
        Api api = mcr_->on(rank);
        const CycleHooks h = hooks(rank, checks);
        h.cycle(rank, api);  // warm-up
        api.barrier(kBarrierBackend);
        if (rank == 0 && h.start) h.start();
        double mark_cpu = process_cpu_s();
        double mark_virtual = cluster.scheduler().now();
        const double start = wall_s();
        for (;;) {
          h.cycle(rank, api);
          if (rank == 0) {
            stop = cycles + 1 >= min &&
                   (fixed_cycles > 0 || wall_s() - start >= seconds);
          }
          api.barrier(kBarrierBackend);
          if (rank == 0) {
            const double v = cluster.scheduler().now();
            const double c = process_cpu_s();
            out.rates.push_back(safe_div(ops, c - mark_cpu));
            out.ref_s.push_back(reference_unit_cpu_s());
            out.cycle_virtual.push_back(v - mark_virtual);
            mark_cpu = process_cpu_s();
            mark_virtual = v;
            ++cycles;
            if (h.after) h.after(out.cycle_virtual.back());
          }
          if (stop) break;
        }
      });
    } catch (const std::exception& e) {
      checks.fail(std::string("simulator error: ") + e.what());
    }
    out.wall_s = wall_s() - w0;
    out.usage = Usage::now() - u0;
    out.counters = Counters::read(cluster) - before;
    out.steps = cycles + 1.0;
    out.ops = out.counters.total(out.counters.ops);
    return out;
  }

  void fill_common(LayerInputs& in) const {
    in.arena_slots = arena_slots_;
    in.table_gen_s = median(table_gen_s_);
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
  TuningTable table_;
  std::vector<double> table_gen_s_;  // one per set-up pass
  double arena_slots_ = 0.0;
  double virtual_cycle_us_ = 0.0;
  SpanRecorder* spans_ = nullptr;  // set by install() for one loop
};

// --- moe256 ------------------------------------------------------------------

class MoeBench : public CommBench {
 public:
  MoeBench()
      : plan_(models::CommPlan::mcr_dl_tuned()), framework_(models::FrameworkModel::raw()) {}

  void fill_layers(LayerInputs& in) override {
    fill_common(in);
    in.models_layer = true;
    in.virtual_step_us = first_step_["virtual_step_us"];
    in.compute_us_per_step = first_step_["compute_us"];
    for (const std::string& b : kBackends) in.comm_us_per_step[b] = first_step_["comm_us." + b];
  }

 protected:
  net::SystemConfig system() const override { return net::SystemConfig::lassen(64); }

  // MCR-DL-T's table at 256 ranks for the ops and sizes the model uses (the
  // fig8 driver's grid).
  TuningConfig tuning_config() const override {
    TuningConfig cfg;
    cfg.backends = kBackends;
    cfg.ops = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Barrier};
    cfg.sizes = {64u << 10, 1u << 20, 4u << 20, 16u << 20, 32u << 20};
    cfg.world_sizes = {system().world_size()};
    cfg.iterations = 1;
    return cfg;
  }

  void build_runtime() override {
    const net::SystemConfig sys = system();
    model_ = std::make_unique<models::DSMoEModel>(models::DSMoEConfig{}, sys);
    cluster_ = std::make_unique<ClusterContext>(sys);
    McrDlOptions opts;
    opts.logging_enabled = true;  // as TrainingHarness runs it
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
    mcr_->init(plan_.backends_needed(available_backend_names()));
    mcr_->set_tuning_table(table_);
  }

  void drop_runtime() override {
    CommBench::drop_runtime();
    model_.reset();
  }

  double ops_per_cycle() const override { return 1.0; }  // one training step
  int min_cycles() const override { return 3; }

  CycleHooks hooks(int rank, Checks& checks) override {
    CycleHooks h;
    // CommIssuer keeps a reference to the plan and framework (members).
    h.cycle = [this](int r, Api& api) {
      models::CommIssuer comm(api, plan_, framework_);
      model_->run_steps(comm, r, 1);
      synchronize([&] { comm.synchronize(); });
    };
    if (rank != 0) return h;
    h.start = [this] {
      busy_mark_ = cluster_->device(0)->default_stream()->busy_time();
      mcr_->logger().clear();
      step_ref_.clear();
    };
    h.after = [this, &checks](double virtual_us) {
      // Rank 0's own records are complete once its barrier returned.
      CommLogger& log = mcr_->logger();
      const double busy = cluster_->device(0)->default_stream()->busy_time();
      Anchors step = {{"virtual_step_us", virtual_us},
                      {"compute_us", busy - busy_mark_},
                      {"rank0_bytes", static_cast<double>(log.bytes_moved(0))},
                      {"rank0_ops", static_cast<double>(log.op_count(0))}};
      for (const auto& [b, t] : log.time_by_backend(0)) step["comm_us." + b] = t;
      busy_mark_ = busy;
      log.clear();
      if (step_ref_.empty()) {
        step_ref_ = step;
      } else {
        check_anchors(step_ref_, step, "step", checks);
      }
    };
    return h;
  }

  // Every step of DS-MoE issues the same collectives from aligned ranks, so
  // every step must match the first one, and a second loop (the traced
  // half) the first loop.
  void verify_cycles(const Sampled& measured, Checks& checks) override {
    if (!first_step_.empty()) check_anchors(first_step_, step_ref_, "second loop", checks);
    first_step_ = step_ref_;
    // Totals include the warm-up step, which issues what a measured step does.
    for (const std::string& b : kBackends) {
      anchors_["bytes_per_step." + b] =
          safe_div(measured.counters.get(measured.counters.bytes, b), measured.steps);
      anchors_["ops_per_step." + b] =
          safe_div(measured.counters.get(measured.counters.ops, b), measured.steps);
    }
    anchors_["virtual_step_us"] = first_step_["virtual_step_us"];
  }

 private:
  models::CommPlan plan_;
  models::FrameworkModel framework_;
  std::unique_ptr<models::DSMoEModel> model_;
  double busy_mark_ = 0.0;
  Anchors step_ref_;    // first timed step of the current loop
  Anchors first_step_;  // first timed step of the first loop
};

// --- dispatch ----------------------------------------------------------------

class DispatchBench : public CommBench {
 public:
  explicit DispatchBench(std::uint64_t seed) {
    // The op program: kWindows windows of kOpsPerWindow async ops, the same
    // on every rank (SPMD). Every (op, size) pair of the grid appears equally
    // often (to within one) and the seed shuffles the order and picks the
    // broadcast roots, so each seed does the same amount of work.
    const OpType types[] = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Broadcast};
    Rng rng(seed ^ 0xd15ca7c4ull);
    for (int i = 0; i < kWindows * kOpsPerWindow; ++i) {
      Op op;
      op.type = types[i % 3];
      op.size = (i / 3) % kSizes;
      op.root = static_cast<int>(rng.next_below(kWorld));
      program_.push_back(op);
    }
    shuffle(program_, rng);
  }

  void fill_layers(LayerInputs& in) override {
    fill_common(in);
    in.steps_per_cycle = kWindows;
    in.virtual_step_us = virtual_cycle_us_ / kWindows;
  }

 protected:
  net::SystemConfig system() const override { return net::SystemConfig::lassen(kWorld / 4); }

  TuningConfig tuning_config() const override {
    TuningConfig cfg;
    cfg.backends = kBackends;
    cfg.ops = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Broadcast};
    cfg.sizes.clear();
    for (int i = 0; i < kSizes; ++i) cfg.sizes.push_back(bytes_of(i));
    cfg.world_sizes = {kWorld};
    cfg.iterations = 1;
    return cfg;
  }

  void build_runtime() override {
    cluster_ = std::make_unique<ClusterContext>(system());
    mcr_ = std::make_unique<McrDl>(cluster_.get());
    mcr_->init(kBackends);
    mcr_->set_tuning_table(table_);
  }

  double ops_per_cycle() const override { return static_cast<double>(program_.size()) * kWorld; }
  int min_cycles() const override { return 8; }

  Anchors expected_ops_per_cycle() const override {
    Anchors expected;
    for (const std::string& b : kBackends) expected["ops_per_cycle." + b] = 0.0;
    for (const Op& op : program_) {
      expected["ops_per_cycle." + table_.lookup(op.type, kWorld, bytes_of(op.size))] += kWorld;
    }
    return expected;
  }

  CycleHooks hooks(int rank, Checks&) override {
    // Phantom payloads, one input/output pair per size, reused by every op
    // of that size: the workload measures dispatch, not data.
    sim::Device* dev = cluster_->device(rank);
    auto in = std::make_shared<std::vector<Tensor>>();
    auto out = std::make_shared<std::vector<Tensor>>();
    for (int i = 0; i < kSizes; ++i) {
      in->push_back(Tensor::phantom({elems_of(i)}, DType::F32, dev));
      out->push_back(Tensor::phantom({elems_of(i)}, DType::F32, dev));
    }
    CycleHooks h;
    h.cycle = [this, in, out](int, Api& api) {
      for (std::size_t i = 0; i < program_.size(); ++i) {
        const Op& op = program_[i];
        const auto s = static_cast<std::size_t>(op.size);
        switch (op.type) {
          case OpType::AllReduce:
            api.all_reduce("auto", (*in)[s], ReduceOp::Sum, true);
            break;
          case OpType::AllToAllSingle:
            api.all_to_all_single("auto", (*out)[s], (*in)[s], true);
            break;
          default:
            api.broadcast("auto", (*in)[s], op.root, true);
            break;
        }
        if ((i + 1) % kOpsPerWindow == 0) synchronize([&] { api.synchronize(); });
      }
    };
    return h;
  }

 private:
  struct Op {
    OpType type = OpType::AllReduce;
    int size = 0;  // index into the size grid
    int root = 0;
  };
  static constexpr int kWorld = 8;
  static constexpr int kWindows = 16;
  static constexpr int kOpsPerWindow = 64;
  static constexpr int kSizes = 11;  // 256 B .. 256 KiB

  static std::size_t bytes_of(int size) { return std::size_t{256} << size; }
  static std::int64_t elems_of(int size) { return static_cast<std::int64_t>(bytes_of(size) / 4); }

  std::vector<Op> program_;
};

// --- payload -----------------------------------------------------------------

class PayloadBench : public CommBench {
 public:
  explicit PayloadBench(std::uint64_t seed) : seed_(seed) {
    // Slot sizes step evenly from 16 KiB to 256 KiB of F32 and the seed
    // only shuffles them, so every seed moves the same bytes per cycle.
    Rng rng(seed ^ 0x9a710adull);
    for (int s = 0; s < kSlots; ++s) elems_.push_back(4096 + s * (65536 - 4096) / (kSlots - 1));
    shuffle(elems_, rng);
    // Every (op, slot) pair appears equally often; the seed shuffles them.
    for (int i = 0; i < kWindows * kOpsPerWindow; ++i) {
      program_.push_back(Op{i % 2 == 0, (i / 2) % kSlots});
    }
    shuffle(program_, rng);
    for (int k = 0; k < kProbes; ++k) probe_pos_.push_back(rng.next_double());
  }

  void fill_layers(LayerInputs& in) override {
    fill_common(in);
    in.steps_per_cycle = kWindows;
    in.virtual_step_us = virtual_cycle_us_ / kWindows;
  }

 protected:
  net::SystemConfig system() const override { return net::SystemConfig::lassen(kWorld / 4); }

  TuningConfig tuning_config() const override {
    TuningConfig cfg;
    cfg.backends = kBackends;
    cfg.ops = {OpType::AllReduce, OpType::AllGather};
    cfg.sizes = {16u << 10, 32u << 10, 64u << 10, 128u << 10, 256u << 10};
    cfg.world_sizes = {kWorld};
    cfg.iterations = 1;
    return cfg;
  }

  // Cluster and runtime, then every rank's materialised, filled tensors.
  void build_runtime() override {
    cluster_ = std::make_unique<ClusterContext>(system());
    mcr_ = std::make_unique<McrDl>(cluster_.get());
    mcr_->init(kBackends);
    mcr_->set_tuning_table(table_);
    tensors_.assign(kWorld, {});
    for (int r = 0; r < kWorld; ++r) {
      sim::Device* dev = cluster_->device(r);
      RankTensors& t = tensors_[static_cast<std::size_t>(r)];
      for (int s = 0; s < kSlots; ++s) {
        const std::int64_t n = elems_[static_cast<std::size_t>(s)];
        t.reduce.push_back(Tensor::zeros({n}, DType::F32, dev));
        t.gather_in.push_back(Tensor::zeros({n}, DType::F32, dev));
        t.gather_out.push_back(Tensor::zeros({n * kWorld}, DType::F32, dev));
        fill(t.reduce.back(), r, s, 0);
        fill(t.gather_in.back(), r, s, 1);
      }
    }
  }

  void drop_runtime() override {
    tensors_.clear();
    CommBench::drop_runtime();
  }

  double ops_per_cycle() const override { return static_cast<double>(program_.size()) * kWorld; }
  int min_cycles() const override { return 4; }

  Anchors expected_ops_per_cycle() const override {
    Anchors expected;
    for (const std::string& b : kBackends) expected["ops_per_cycle." + b] = 0.0;
    for (const Op& op : program_) {
      const OpType type = op.reduce ? OpType::AllReduce : OpType::AllGather;
      const std::size_t bytes = static_cast<std::size_t>(elems_[static_cast<std::size_t>(op.slot)]) * 4;
      expected["ops_per_cycle." + table_.lookup(type, kWorld, bytes)] += kWorld;
    }
    return expected;
  }

  CycleHooks hooks(int, Checks& checks) override {
    CycleHooks h;
    h.cycle = [this, &checks](int rank, Api& api) {
      RankTensors& t = tensors_[static_cast<std::size_t>(rank)];
      for (std::size_t i = 0; i < program_.size(); ++i) {
        const Op& op = program_[i];
        const auto s = static_cast<std::size_t>(op.slot);
        // Max is idempotent, so the expected values hold after any number
        // of repetitions and any interleaving of the two backends.
        if (op.reduce) {
          api.all_reduce("auto", t.reduce[s], ReduceOp::Max, true);
        } else {
          api.all_gather("auto", t.gather_out[s], t.gather_in[s], true);
        }
        if ((i + 1) % kOpsPerWindow == 0) {
          synchronize([&] { api.synchronize(); });
          const std::string bad = verify(rank);
          std::lock_guard<std::mutex> lock(checks_mu_);
          checks.expect(bad.empty(), bad);
        }
      }
    };
    return h;
  }

 private:
  struct Op {
    bool reduce = true;  // all_reduce, else all_gather
    int slot = 0;
  };
  struct RankTensors {
    std::vector<Tensor> reduce;      // all_reduce(Max) in place
    std::vector<Tensor> gather_in;   // all_gather input
    std::vector<Tensor> gather_out;  // world x input
  };
  static constexpr int kWorld = 8;
  static constexpr int kSlots = 8;
  static constexpr int kWindows = 2;
  static constexpr int kOpsPerWindow = 64;
  static constexpr int kProbes = 6;  // sampled positions per tensor, plus both ends

  // Small integers, exact in F32: element i of rank `rank`'s tensor.
  float value(int rank, int slot, std::int64_t i, int which) const {
    std::uint64_t h = seed_ * 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(rank) << 48) ^
                      (static_cast<std::uint64_t>(slot) << 40) ^
                      (static_cast<std::uint64_t>(which) << 36) ^ static_cast<std::uint64_t>(i);
    h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    return static_cast<float>(h % 1024);
  }

  void fill(Tensor& t, int rank, int slot, int which) const {
    std::vector<float> v(static_cast<std::size_t>(t.numel()));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = value(rank, slot, static_cast<std::int64_t>(i), which);
    }
    std::memcpy(t.raw_data(), v.data(), v.size() * sizeof(float));
  }

  // "" when every sampled element of `rank`'s tensors holds the expected
  // result, else a description of the first mismatch.
  std::string verify(int rank) const {
    const RankTensors& t = tensors_[static_cast<std::size_t>(rank)];
    for (int s = 0; s < kSlots; ++s) {
      const auto k = static_cast<std::size_t>(s);
      const std::int64_t n = elems_[k];
      std::vector<std::int64_t> positions = {0, n - 1};
      for (double p : probe_pos_) positions.push_back(static_cast<std::int64_t>(p * static_cast<double>(n)));
      for (std::int64_t i : positions) {
        float want = 0.0f;
        for (int r = 0; r < kWorld; ++r) want = std::max(want, value(r, s, i, 0));
        const std::string where = "rank " + std::to_string(rank) + " slot " + std::to_string(s);
        if (t.reduce[k].get(i) != want) {
          return where + " all_reduce[" + std::to_string(i) + "] = " +
                 json_number(t.reduce[k].get(i)) + ", expected " + json_number(want);
        }
        for (int r = 0; r < kWorld; ++r) {
          const double got = t.gather_out[k].get(r * n + i);
          if (got != value(r, s, i, 1)) {
            return where + " all_gather block " + std::to_string(r) + "[" + std::to_string(i) +
                   "] = " + json_number(got) + ", expected " + json_number(value(r, s, i, 1));
          }
        }
      }
    }
    return "";
  }

  std::uint64_t seed_;
  std::vector<std::int64_t> elems_;  // per slot
  std::vector<Op> program_;
  std::vector<double> probe_pos_;
  std::vector<RankTensors> tensors_;
  std::mutex checks_mu_;  // ranks check their own tensors after each window
};

// --- serve -------------------------------------------------------------------
class ServeBench : public Bench {
 public:
  explicit ServeBench(std::uint64_t seed) : seed_(seed) {}

  void teardown() override {
    scheduler_.reset();
    trace_ = sched::ArrivalTrace{};
  }

  void build() override {
    // Trace generation, scheduler construction and the first (cold) replay,
    // which fills the JobCostCache with one harness run per job shape.
    sched::TraceConfig tc;
    tc.num_jobs = kJobs;
    tc.seed = seed_;
    trace_ = sched::generate_trace(tc);
    const double horizon = trace_.jobs.empty() ? 0.0 : trace_.jobs.back().arrival_us;
    sched::ServeConfig config;  // 16 Lassen nodes, "mixed" plan
    config.chaos.push_back(sched::ChaosWindow{0.25 * horizon, 0.75 * horizon, 8.0});
    scheduler_ = std::make_unique<sched::ServeScheduler>(config);
    const double t0 = wall_s();
    (void)scheduler_->run(trace_);
    cold_replay_s_.push_back(wall_s() - t0);
  }

  // One span per replay, opened by run() itself: the replay has no pipeline.
  std::vector<std::string> span_names() const override { return {"replay"}; }
  void install(SpanRecorder&) override {}

  Sampled run(double seconds, Checks& checks, SpanRecorder* spans) override {
    Sampled out;
    const Usage u0 = Usage::now();
    const double w0 = wall_s();
    std::vector<double> cpu_us;
    while (out.steps < 3 || wall_s() - w0 < seconds) {
      const double t0 = wall_s();
      const double p0 = process_cpu_s();
      const double c0 = thread_cpu_us();
      if (spans != nullptr) spans->open(0);
      Anchors got;
      try {
        got = summarize(scheduler_->run(trace_));
      } catch (const std::exception& e) {
        checks.fail(std::string("replay error: ") + e.what());
      }
      if (spans != nullptr) spans->close();
      cpu_us.push_back(thread_cpu_us() - c0);
      const double dt = wall_s() - t0;
      out.rates.push_back(safe_div(kJobs, process_cpu_s() - p0));
      out.ref_s.push_back(reference_unit_cpu_s());
      warm_replay_s_.push_back(dt);
      out.steps += 1.0;
      out.ops += kJobs;
      // Replays are deterministic: every one must match the first measured.
      if (anchors_.empty()) {
        anchors_ = got;
        checks.expect(!got.empty(), "first replay produced no result");
      } else {
        check_anchors(anchors_, got, "replay", checks);
      }
    }
    out.wall_s = wall_s() - w0;
    out.usage = Usage::now() - u0;
    replay_cpu_us_per_job_ = safe_div(median(cpu_us), kJobs);
    return out;
  }

  void fill_layers(LayerInputs& in) override {
    in.cache_entries = static_cast<double>(scheduler_->cost_cache().entries());
    in.cache_fill_s = std::max(0.0, median(cold_replay_s_) - median(warm_replay_s_));
    in.replay_cpu_us_per_job = replay_cpu_us_per_job_;
  }

 private:
  static constexpr int kJobs = 20000;

  static Anchors summarize(const sched::ServeResult& r) {
    return {{"completed", static_cast<double>(r.completed)},
            {"rejected", static_cast<double>(r.rejected)},
            {"shed", static_cast<double>(r.shed)},
            {"p99_latency_us", r.p99_latency_us},
            {"makespan_us", r.makespan_us}};
  }

  std::uint64_t seed_;
  sched::ArrivalTrace trace_;
  std::unique_ptr<sched::ServeScheduler> scheduler_;
  std::vector<double> cold_replay_s_;
  std::vector<double> warm_replay_s_;
  double replay_cpu_us_per_job_ = 0.0;
};

std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed) {
  // moe256 has no seeded input: the paper's model and plan are fixed.
  if (name == "moe256") return std::make_unique<MoeBench>();
  if (name == "dispatch") return std::make_unique<DispatchBench>(seed);
  if (name == "payload") return std::make_unique<PayloadBench>(seed);
  if (name == "serve") return std::make_unique<ServeBench>(seed);
  throw InvalidArgument("unknown workload '" + name + "'");
}

// --- per-layer metrics -------------------------------------------------------

void emit_layers(const LayerInputs& in, Result& out) {
  const Sampled& p = in.plain;
  const Sampled& t = in.traced;
  const double cpu = p.usage.cpu_s();
  out.add("sim.sys_cpu_share", safe_div(p.usage.sys_s, cpu), "share");
  out.add("sim.ctx_switches_per_op", safe_div(p.usage.ctx_switches, p.ops), "count/op");
  out.add("sim.cpu_per_wall", safe_div(cpu, p.wall_s), "ratio");
  out.add("sim.events_per_op", safe_div(p.counters.events, p.ops), "count/op");

  // Per-op figures are per pipeline operation (root span "overhead").
  const double span_ops = in.spans ? static_cast<double>(in.spans->roots(0)) : 0.0;
  // Every span but the terminal issue span holds the next probe; its
  // calibrated cost is taken out of the stage's self time.
  const auto stage_us = [&](const std::string& stage) {
    if (in.spans == nullptr) return 0.0;
    const auto& names = in.spans->names();
    const auto it = std::find(names.begin(), names.end(), stage);
    if (it == names.end()) return 0.0;
    const double self =
        safe_div(in.spans->self_us(static_cast<std::uint32_t>(it - names.begin())), span_ops);
    return std::max(0.0, self - (stage == "issue" ? 0.0 : in.probe_us));
  };
  double pre_issue = 0.0;
  for (const std::string& stage : kStages) {
    if (stage == "issue") continue;
    const double us = stage_us(stage);
    pre_issue += us;
    out.add("core.stage_cpu_us_per_op." + stage, us, "us/op");
  }
  out.add("core.pre_issue_cpu_us_per_op", pre_issue, "us/op");
  out.add("core.arena_slots", in.arena_slots, "count");
  const double issue_us = stage_us("issue");
  out.add("backends.issue_cpu_us_per_op", issue_us, "us/op");

  const double steps = p.steps * in.steps_per_cycle;
  for (const std::string& b : kBackends) {
    out.add("backends.ops_per_step." + b, safe_div(p.counters.get(p.counters.ops, b), steps),
            "count/step");
  }
  for (const std::string& b : kBackends) {
    out.add("backends.bytes_per_step." + b, safe_div(p.counters.get(p.counters.bytes, b), steps),
            "B/step");
  }
  out.add("net.link_bytes_per_step.intra", safe_div(p.counters.link_intra, steps), "B/step");
  out.add("net.link_bytes_per_step.inter", safe_div(p.counters.link_inter, steps), "B/step");

  // The data effect of a collective runs inside issue (host-synchronised
  // backends) or inside the host wait that drains the stream.
  const double sync_us =
      in.spans ? in.spans->self_us(static_cast<std::uint32_t>(kStages.size())) : 0.0;
  out.add("tensor.issue_cpu_ns_per_byte",
          safe_div(1e3 * (issue_us * span_ops + sync_us), t.counters.total(t.counters.bytes)),
          "ns/B");

  out.add("models.cpu_ms_per_step", in.models_layer ? safe_div(1e3 * cpu, p.steps) : 0.0,
          "ms/step");
  out.add("models.virtual_step_us", in.virtual_step_us, "us");
  out.add("models.compute_us_per_step", in.compute_us_per_step, "us/step");
  for (const std::string& b : kBackends) {
    const auto it = in.comm_us_per_step.find(b);
    out.add("models.comm_us_per_step." + b, it == in.comm_us_per_step.end() ? 0.0 : it->second,
            "us/step");
  }

  out.add("tune.table_gen_s", in.table_gen_s, "s");
  out.add("sched.cache_fill_s", in.cache_fill_s, "s");
  out.add("sched.cache_entries", in.cache_entries, "count");
  out.add("sched.replay_cpu_us_per_job", in.replay_cpu_us_per_job, "us/job");

  out.add("trace.overhead_share", 1.0 - safe_div(throughput(t), throughput(p)), "share");
  out.add("trace.cpu_coverage",
          in.spans ? safe_div(1e-6 * in.spans->root_us(), t.usage.cpu_s()) : 0.0, "share");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"moe256", "dispatch", "payload", "serve"};
  return names;
}

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"throughput", 0.0, "items/ref-unit"}, {"setup_s", 0.0, "s"}, {"peak_rss_mb", 0.0, "MB"}};
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    Result r;
    emit_layers(LayerInputs{}, r);
    return r.metrics;
  }();
  return metrics;
}

Result run_workload(const Options& options) {
  std::unique_ptr<Bench> bench = make_bench(options.workload, options.seed);
  Result result;

  // Set-up: one untimed pass (first-touch page faults, allocator growth),
  // then timed passes; the last pass's state is what gets measured.
  // Each timed pass is followed by one reference unit, which scales the
  // passes' CPU time to a host whose reference unit takes kReferenceUnitS.
  const int min_passes = std::max(1, options.setup_reps);
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_ref_s;
  double spent_s = 0.0;
  for (int pass = 0;; ++pass) {
    bench->teardown();
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    bench->build();
    if (pass == 0) continue;
    setup_cpu_s.push_back(process_cpu_s() - c0);
    spent_s += wall_s() - w0;
    setup_ref_s.push_back(reference_unit_cpu_s());
    if (pass >= min_passes && (spent_s >= options.setup_budget_s || pass >= kMaxSetupPasses)) {
      break;
    }
  }

  if (!options.trace) {
    const Sampled s = bench->run(options.seconds, result.checks, nullptr);
    result.samples = static_cast<int>(s.rates.size());
    result.add("throughput", throughput(s), "items/ref-unit");
    result.add("setup_s", median(setup_cpu_s) * safe_div(kReferenceUnitS, median(setup_ref_s)),
               "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    LayerInputs in;
    in.plain = bench->run(0.5 * options.seconds, result.checks, nullptr);
    in.probe_us = probe_overhead_us();
    SpanRecorder spans(bench->span_names(), kKeptSpans);
    bench->install(spans);
    in.traced = bench->run(0.5 * options.seconds, result.checks, &spans);
    in.spans = &spans;
    bench->fill_layers(in);
    result.samples = static_cast<int>(in.plain.rates.size() + in.traced.rates.size());
    emit_layers(in, result);
    if (!options.spans_out.empty()) {
      std::ofstream file(options.spans_out);
      file << spans.kept_json();
      if (!file) result.checks.fail("could not write spans to " + options.spans_out);
    }
  }
  result.anchors = bench->anchors();
  bench->teardown();
  return result;
}

}  // namespace perfbench
