// Result plumbing for the benchmark: named metrics, output checks, and the
// one-line JSON result the runner prints last.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Metric names follow [A-Za-z0-9][A-Za-z0-9_.-]* and are at most 64
// characters; units follow [A-Za-z0-9_/%.-]+ and are at most 16.
bool valid_metric_name(const std::string& name);
bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Output checks. One check covers one step, window or replay; a mismatch or
// an exception counts as a failed check and never aborts the run.
class Checks {
 public:
  // Records one check; returns `ok`. The first few failures keep a message.
  bool expect(bool ok, const std::string& what);
  void fail(const std::string& what) { expect(false, what); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // failed / attempted (0 when nothing was attempted).
  double fail_share() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Virtual-time anchors: results the simulator computes in virtual time
// (step time, bytes per backend, completed jobs, ...). They depend only on
// the workload and seed, never on host speed, so every run of a seed must
// reproduce them exactly.
using Anchors = std::map<std::string, double>;

// One check: `got` must hold every anchor of `expected` with the same value
// to a relative 1e-9 (virtual instants are sums of doubles taken at
// different absolute times, so the last bits may differ). The failure
// message names each mismatched anchor.
void check_anchors(const Anchors& expected, const Anchors& got, const std::string& where,
                   Checks& checks);

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// Shortest round-tripping decimal form ("%.17g"); non-finite values print
// as 0 so the line stays valid JSON.
std::string json_number(double value);
std::string json_string(const std::string& text);

struct Result {
  Checks checks;
  std::vector<Metric> metrics;  // in emission order; names unique
  Anchors anchors;
  int samples = 0;              // timed samples behind the medians

  void add(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
};

// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
std::string result_json(const Result& result);

}  // namespace perfbench
