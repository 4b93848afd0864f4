// MetricsRegistry — the always-on observability spine (paper Section V-E).
//
// The paper's logging extension produced Figures 1 and 12 by attributing
// communication time per operation and per backend; this registry is the
// machine-readable equivalent for the simulator. Three instrument kinds:
//
//   * Counter    — monotonically increasing uint64 (ops, bytes, retries...)
//   * Gauge      — last-written double (link utilization, queue depths...)
//   * Histogram  — fixed-bucket latency distribution (power-of-two µs
//                  bounds by default, 1µs .. ~1s), with count and sum so
//                  means are recoverable without the buckets.
//
// Instruments are keyed by (name, label map); labels are sorted maps so the
// JSON snapshot is deterministic. References returned by counter()/gauge()/
// histogram() stay valid for the registry's lifetime (std::map nodes are
// stable, and nothing removes an instrument), so hot paths cache the pointer
// and skip the lookup: the dispatch path resolves each of its instruments
// once (Comm::issue, the pipeline's finish stage).
//
// Determinism contract: recording is purely observational — it never touches
// the scheduler, sleeps, or allocates device memory — so enabling metrics
// cannot move a single virtual-time stamp (the golden-trace tests pin this).
//
// Single-threaded by construction: every write happens under the
// scheduler's baton (src/sim/scheduler.h), so instruments are plain fields.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mcrdl::obs {

using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-write-wins.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  // `bounds` are inclusive upper bucket edges, strictly increasing; one
  // overflow bucket is appended implicitly.
  explicit Histogram(std::vector<double> bounds);

  // Inline, with one compare for the first bucket: the dispatch path feeds
  // every zero-time pipeline stage's 0.0 through here. Whenever
  // `value <= bounds_[0]`, lower_bound would pick bucket 0 too; every other
  // value, NaN included, takes the lower_bound path as before.
  void observe(double value) {
    const std::size_t bucket =
        value <= bounds_[0]
            ? 0
            : static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                                       bounds_.begin());
    ++counts_[bucket];
    ++count_;
    sum_ += value;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // bucket_counts().size() == bounds().size() + 1; the last is overflow.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  // Power-of-two microsecond edges: 1, 2, 4, ..., 2^20 (≈ 1s).
  static std::vector<double> default_latency_bounds_us();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  // Find-or-create. The returned reference is stable; cache it on hot paths.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  // `bounds` applies only on first creation; empty = default latency edges.
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds = {});

  // Read-only lookups for tests and reporters; zero/null when absent.
  std::uint64_t counter_value(const std::string& name, const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name, const Labels& labels = {}) const;

  // Sum of a counter over every label combination it was recorded with.
  std::uint64_t counter_total(const std::string& name) const;

  std::size_t size() const;

  // Deterministic snapshot:
  //   {"counters":[{"name":...,"labels":{...},"value":N},...],
  //    "gauges":[...{"value":F}...],
  //    "histograms":[...{"count":N,"sum":F,"bounds":[...],"buckets":[...]}...]}
  std::string to_json() const;

 private:
  using Key = std::pair<std::string, Labels>;

  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace mcrdl::obs
