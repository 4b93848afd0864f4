// perfbench — one workload per process.
//
//   perfbench --workload <moe256|dispatch|payload|serve> --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// The process pins itself to one idle CPU first (see pin_to_idlest_cpu).
// Prints one information line (host, seed, virtual-time anchors, failed
// check messages) and, last, the one-line JSON result. Exits 2 on bad
// arguments without printing a result.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "driver/host.h"
#include "driver/report.h"
#include "driver/workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <moe256|dispatch|payload|serve> --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n";
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

bool parse_seed(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_seed(value, options.seed)) return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      if (!parse_number(value, number) || number <= 0) return usage("bad --seconds " + value);
      options.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::pin_to_idlest_cpu();
  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  std::string anchors = "{";
  for (const auto& [name, value] : result.anchors) {
    if (anchors.size() > 1) anchors += ", ";
    anchors += perfbench::json_string(name) + ": " + perfbench::json_number(value);
  }
  anchors += "}";
  std::string failures = "[";
  for (const std::string& m : result.checks.messages()) {
    if (failures.size() > 1) failures += ", ";
    failures += perfbench::json_string(m);
  }
  failures += "]";
  std::cout << "{\"workload\": " << perfbench::json_string(options.workload)
            << ", \"seed\": " << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"samples\": " << result.samples << ", \"host\": " << perfbench::host_json()
            << ", \"anchors\": " << anchors << ", \"failures\": " << failures << "}\n";
  std::cout << perfbench::result_json(result) << std::endl;
  return 0;
}
