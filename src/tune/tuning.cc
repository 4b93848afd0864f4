#include "src/tune/tuning.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/backends/backend.h"

namespace mcrdl {

// ---------------------------------------------------------------------------
// TuningTable
// ---------------------------------------------------------------------------

void TuningTable::set(OpType op, int world, std::size_t max_bytes, std::string backend) {
  MCRDL_REQUIRE(world >= 1, "tuning table world size must be >= 1");
  MCRDL_REQUIRE(!backend.empty(), "tuning table backend must be non-empty");
  table_[op][world][max_bytes] = std::move(backend);
}

const std::string& TuningTable::lookup(OpType op, int world, std::size_t bytes) const {
  auto op_it = table_.find(op);
  if (op_it == table_.end()) {
    throw InvalidArgument(std::string("no tuning data for operation ") + op_name(op) +
                          " — run the tuning suite or pass an explicit backend");
  }
  const auto& worlds = op_it->second;
  // Prefer the exact world size, then the next tabulated size up (tables
  // generalise downward poorly), then the largest available.
  auto w_it = worlds.lower_bound(world);
  if (w_it == worlds.end()) --w_it;
  const auto& sizes = w_it->second;
  auto s_it = sizes.lower_bound(bytes);
  if (s_it == sizes.end()) --s_it;  // oversized messages use the largest bucket
  return s_it->second;
}

bool TuningTable::has(OpType op) const { return table_.count(op) > 0; }

std::size_t TuningTable::num_entries() const {
  std::size_t n = 0;
  for (const auto& [op, worlds] : table_) {
    for (const auto& [w, sizes] : worlds) n += sizes.size();
  }
  return n;
}

std::vector<TuningTable::Entry> TuningTable::entries(OpType op, int world) const {
  std::vector<Entry> out;
  auto op_it = table_.find(op);
  if (op_it == table_.end()) return out;
  auto w_it = op_it->second.find(world);
  if (w_it == op_it->second.end()) return out;
  for (const auto& [max_bytes, backend] : w_it->second) {
    out.push_back(Entry{op, world, max_bytes, backend});
  }
  return out;
}

std::vector<int> TuningTable::tuned_worlds(OpType op) const {
  std::vector<int> out;
  auto op_it = table_.find(op);
  if (op_it == table_.end()) return out;
  for (const auto& [w, sizes] : op_it->second) out.push_back(w);
  return out;
}

std::string TuningTable::serialize() const {
  std::ostringstream out;
  out << "# mcr-dl tuning table: op world max_bytes backend\n";
  for (const auto& [op, worlds] : table_) {
    for (const auto& [world, sizes] : worlds) {
      for (const auto& [max_bytes, backend] : sizes) {
        out << op_name(op) << " " << world << " " << max_bytes << " " << backend << "\n";
      }
    }
  }
  return out.str();
}

TuningTable TuningTable::parse(const std::string& text) {
  TuningTable table;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string op_str, backend;
    int world = 0;
    std::size_t max_bytes = 0;
    if (!(fields >> op_str >> world >> max_bytes >> backend)) {
      throw InvalidArgument("malformed tuning table line " + std::to_string(line_no) + ": " +
                            line);
    }
    // Exactly four fields per line: trailing tokens are a corrupt or
    // hand-mangled table, not something to silently accept.
    std::string extra;
    if (fields >> extra) {
      throw InvalidArgument("trailing garbage '" + extra + "' on tuning table line " +
                            std::to_string(line_no) + ": " + line);
    }
    OpType op;
    if (!op_from_name(op_str, op)) {
      throw InvalidArgument("unknown operation '" + op_str + "' in tuning table line " +
                            std::to_string(line_no));
    }
    table.set(op, world, max_bytes, backend);
  }
  return table;
}

void TuningTable::save(const std::string& path) const {
  std::ofstream out(path);
  MCRDL_REQUIRE(out.good(), "cannot open tuning table file for writing: " + path);
  out << serialize();
}

TuningTable TuningTable::load(const std::string& path) {
  std::ifstream in(path);
  MCRDL_REQUIRE(in.good(), "cannot open tuning table file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

// ---------------------------------------------------------------------------
// TuningSuite
// ---------------------------------------------------------------------------

TuningSuite::TuningSuite(net::SystemConfig base) : base_(std::move(base)) {}

namespace {

// Rounds `numel` up so every rank owns an equal, nonzero block.
std::int64_t divisible_numel(std::size_t bytes, int world) {
  const std::int64_t numel = std::max<std::int64_t>(static_cast<std::int64_t>(bytes / 4), 1);
  const std::int64_t rem = numel % world;
  return rem == 0 ? numel : numel + (world - rem);
}

// Runs `iterations` timed executions of one blocking collective and returns
// the mean per-operation latency seen by rank 0.
void run_grid_point(ClusterContext& cluster, Backend& backend, OpType op, std::size_t bytes,
                    int world, int warmup, int iterations, SimTime* result) {
  std::vector<int> ranks(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) ranks[static_cast<std::size_t>(r)] = r;
  Comm* comm = backend.group(ranks);
  cluster.run_spmd(world, [&](int rank) {
    sim::Device* dev = cluster.device(rank);
    const std::int64_t numel = divisible_numel(bytes, world);
    auto one_op = [&] {
      switch (op) {
        case OpType::AllReduce: {
          Tensor t = Tensor::phantom({numel}, DType::F32, dev);
          comm->all_reduce(rank, t, ReduceOp::Sum, false);
          break;
        }
        case OpType::AllGather: {
          Tensor in = Tensor::phantom({numel}, DType::F32, dev);
          Tensor out = Tensor::phantom({numel * world}, DType::F32, dev);
          comm->all_gather(rank, out, in, false);
          break;
        }
        case OpType::ReduceScatter: {
          Tensor in = Tensor::phantom({numel}, DType::F32, dev);
          Tensor out = Tensor::phantom({numel / world}, DType::F32, dev);
          comm->reduce_scatter(rank, out, in, ReduceOp::Sum, false);
          break;
        }
        case OpType::Broadcast: {
          Tensor t = Tensor::phantom({numel}, DType::F32, dev);
          comm->broadcast(rank, t, 0, false);
          break;
        }
        case OpType::AllToAllSingle: {
          Tensor in = Tensor::phantom({numel}, DType::F32, dev);
          Tensor out = Tensor::phantom({numel}, DType::F32, dev);
          comm->all_to_all_single(rank, out, in, false);
          break;
        }
        case OpType::Barrier:
          comm->barrier(rank, false);
          break;
        default:
          MCRDL_REQUIRE(false, "tuning suite does not benchmark this operation");
      }
      backend.synchronize(rank);
    };
    for (int i = 0; i < warmup; ++i) one_op();
    const SimTime start = cluster.scheduler().now();
    for (int i = 0; i < iterations; ++i) one_op();
    if (rank == 0) *result = (cluster.scheduler().now() - start) / iterations;
  });
}

}  // namespace

TuningTable TuningSuite::generate(const TuningConfig& config) {
  TuningConfig cfg = config;
  if (cfg.backends.empty()) cfg.backends = available_backend_names();
  if (cfg.world_sizes.empty()) cfg.world_sizes = {base_.world_size()};
  MCRDL_REQUIRE(cfg.iterations >= 1, "tuning iterations must be >= 1");

  measurements_.clear();
  TuningTable table;
  // Grid points run one after another on this thread, so they share one
  // pool of actor stacks.
  sim::StackPool stacks;
  for (int world : cfg.world_sizes) {
    net::SystemConfig sys = base_;
    sys.num_nodes = (world + base_.gpus_per_node - 1) / base_.gpus_per_node;
    for (const auto& backend_name : cfg.backends) {
      for (OpType op : cfg.ops) {
        for (std::size_t bytes : cfg.sizes) {
          // A fresh cluster per grid point keeps the points independent.
          ClusterContext cluster(sys, &stacks);
          auto backend = make_backend(backend_name, &cluster);
          backend->init();
          SimTime t = 0.0;
          run_grid_point(cluster, *backend, op, bytes, world, cfg.warmup, cfg.iterations, &t);
          measurements_.push_back(Measurement{backend_name, op, world, bytes, t});
        }
      }
    }
    // Pick the winner per (op, size).
    for (OpType op : cfg.ops) {
      for (std::size_t bytes : cfg.sizes) {
        const Measurement* best = nullptr;
        for (const auto& m : measurements_) {
          if (m.op != op || m.world != world || m.bytes != bytes) continue;
          if (best == nullptr || m.time_us < best->time_us) best = &m;
        }
        MCRDL_CHECK(best != nullptr);
        table.set(op, world, bytes, best->backend);
      }
    }
  }
  return table;
}

SimTime TuningSuite::measured(const std::string& backend, OpType op, int world,
                              std::size_t bytes) const {
  for (const auto& m : measurements_) {
    if (m.backend == backend && m.op == op && m.world == world && m.bytes == bytes) {
      return m.time_us;
    }
  }
  throw InvalidArgument("no measurement for requested tuning grid point");
}

}  // namespace mcrdl
