// bench_export — runs a paper experiment and writes its results as a
// machine-readable BENCH_<experiment>.json perf-trajectory file (schema
// mcrdl-bench-v1, documented in bench/experiments.h and DESIGN.md §8).
//
//   bench_export --experiment fig2 [--out DIR] [--quick]
//   bench_export --check BENCH_fig2.json
//   bench_export --list
//
// Experiments come from the registry in bench/experiments.h; --list prints
// every registered name with its one-line description. --quick trims the
// sweeps that have a CI smoke grid; the paper's fixed grids ignore it. --check parses an existing file with the strict
// JSON parser and validates the schema; for fig2 it additionally requires
// at least one series whose points sweep strictly increasing message sizes,
// so a truncated or reordered export fails CI.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/experiments.h"
#include "src/common/status.h"
#include "src/obs/json.h"

using namespace mcrdl;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --experiment %s [--out DIR] [--quick]\n"
               "       %s --check FILE\n"
               "       %s --list\n",
               argv0, bench::experiment_names().c_str(), argv0, argv0);
  return 2;
}

int list_experiments() {
  for (const bench::Experiment& experiment : bench::experiment_registry()) {
    std::printf("%-10s %s\n", experiment.name.c_str(), experiment.description.c_str());
  }
  return 0;
}

// Validates the mcrdl-bench-v1 schema; throws InvalidArgument on violation.
void check_schema(const obs::JsonValue& doc) {
  if (doc.at("schema").str != bench::kBenchSchema) {
    throw InvalidArgument("unexpected schema tag: " + doc.at("schema").str);
  }
  const std::string experiment = doc.at("experiment").str;
  const auto& series = doc.at("series");
  if (!series.is_array() || series.array.empty()) {
    throw InvalidArgument("bench file has no series");
  }
  bool has_increasing_bytes_sweep = false;
  bool has_hotpath_speedup = false;
  for (const auto& s : series.array) {
    if (!s.at("name").is_string() || !s.at("backend").is_string()) {
      throw InvalidArgument("series needs string name and backend");
    }
    const auto& points = s.at("points");
    if (!points.is_array()) throw InvalidArgument("series.points must be an array");
    double prev_bytes = -1.0;
    bool increasing = points.array.size() >= 2;
    for (const auto& p : points.array) {
      for (const char* field : {"world", "bytes", "virtual_us", "items_per_s"}) {
        if (!p.at(field).is_number()) {
          throw InvalidArgument(std::string("point field is not a number: ") + field);
        }
      }
      if (p.at("virtual_us").number < 0.0) throw InvalidArgument("negative virtual_us");
      if (p.at("bytes").number <= prev_bytes) increasing = false;
      prev_bytes = p.at("bytes").number;
      // The hotpath speedup series carries the bucketed/fast wall-clock
      // throughput ratio. The CI gate is deliberately lenient (1.5x) so a
      // loaded runner cannot flake it, while still catching bucketing that
      // stopped amortising dispatch cost.
      if (experiment == "hotpath" && s.at("name").str == "speedup") {
        if (p.at("items_per_s").number < 1.5) {
          throw InvalidArgument("hotpath speedup dropped below 1.5x at bytes=" +
                                std::to_string(p.at("bytes").number));
        }
        has_hotpath_speedup = true;
      }
    }
    if (increasing) has_increasing_bytes_sweep = true;
  }
  // Microbench exports must contain a real message-size sweep; a report
  // with one point per series (or shuffled sizes) is a broken export.
  if (experiment == "fig2" && !has_increasing_bytes_sweep) {
    throw InvalidArgument(
        "fig2 export has no series with >= 2 points of strictly increasing bytes");
  }
  if (experiment == "hotpath" && !has_hotpath_speedup) {
    throw InvalidArgument("hotpath export has no populated speedup series");
  }
  // Composite-collective contract (DESIGN.md §15). Two orderings make the
  // experiment worth exporting, checked on whatever grid the file carries
  // (full or --quick) so the CI gate and the committed export share a rule:
  //   * algorithm — at every node count >= 2, the hierarchical allreduce
  //     beats the flat single-backend choice at the largest swept message;
  //   * schedule — on the 3D-CNN plan, hier+overlap beats the identical
  //     hier plan without the overlap scheduler, at every model world.
  if (experiment == "hier") {
    auto last_virtual_us = [](const obs::JsonValue& s) {
      return s.at("points").array.back().at("virtual_us").number;
    };
    int compared_nodes = 0;
    int compared_worlds = 0;
    for (const auto& flat : series.array) {
      const std::string& name = flat.at("name").str;
      const std::string prefix = "all_reduce/flat/n";
      if (name.rfind(prefix, 0) != 0 || flat.at("points").array.empty()) continue;
      const int nodes = std::atoi(name.c_str() + prefix.size());
      if (nodes < 2) continue;
      for (const auto& hier : series.array) {
        if (hier.at("name").str != "all_reduce/hier/n" + std::to_string(nodes)) continue;
        if (hier.at("points").array.empty()) continue;
        if (last_virtual_us(hier) >= last_virtual_us(flat)) {
          throw InvalidArgument("hier allreduce does not beat flat at n=" +
                                std::to_string(nodes) + " for the largest message");
        }
        ++compared_nodes;
      }
    }
    const obs::JsonValue* cnn_hier = nullptr;
    const obs::JsonValue* cnn_overlap = nullptr;
    for (const auto& s : series.array) {
      if (s.at("name").str == "cnn3d/hier") cnn_hier = &s;
      if (s.at("name").str == "cnn3d/hier+overlap") cnn_overlap = &s;
    }
    if (cnn_hier != nullptr && cnn_overlap != nullptr) {
      for (const auto& hp : cnn_hier->at("points").array) {
        for (const auto& op : cnn_overlap->at("points").array) {
          if (op.at("world").number != hp.at("world").number) continue;
          if (op.at("virtual_us").number >= hp.at("virtual_us").number) {
            throw InvalidArgument("cnn3d hier+overlap does not beat hier at world=" +
                                  std::to_string(static_cast<int>(hp.at("world").number)));
          }
          ++compared_worlds;
        }
      }
    }
    if (compared_nodes == 0 || compared_worlds == 0) {
      throw InvalidArgument("hier export is missing its flat-vs-hier or cnn3d comparison");
    }
  }
}

int check_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_export: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    check_schema(obs::parse_json(buf.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_export: %s failed validation: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: valid %s file\n", path.c_str(), bench::kBenchSchema);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string experiment;
  std::string out_dir = ".";
  std::string check_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--experiment" && i + 1 < argc) {
      experiment = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--list") {
      return list_experiments();
    } else {
      return usage(argv[0]);
    }
  }

  if (!check_path.empty()) return check_file(check_path);
  if (experiment.empty()) return usage(argv[0]);

  const bench::Experiment* entry = bench::find_experiment(experiment);
  if (entry == nullptr) {
    std::fprintf(stderr, "bench_export: unknown experiment '%s'\n", experiment.c_str());
    return usage(argv[0]);
  }

  bench::BenchReport report;
  try {
    bench::ExperimentOptions options;
    options.quick = quick;
    report = entry->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_export: experiment failed: %s\n", e.what());
    return 1;
  }

  const std::string json = bench::to_bench_json(report);
  // The writer eats its own dog food: a file that would fail --check is
  // never written.
  check_schema(obs::parse_json(json));

  const std::string path = out_dir + "/BENCH_" + experiment + ".json";
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "bench_export: cannot write %s\n", path.c_str());
    return 1;
  }
  out << json << "\n";
  out.close();
  std::size_t points = 0;
  for (const auto& s : report.series) points += s.points.size();
  std::printf("wrote %s (%zu series, %zu points%s)\n", path.c_str(), report.series.size(),
              points, quick ? ", quick grid" : "");
  return 0;
}
