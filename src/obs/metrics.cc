#include "src/obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/common/status.h"
#include "src/obs/json.h"

namespace mcrdl::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  MCRDL_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  MCRDL_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                "histogram bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

std::vector<double> Histogram::default_latency_bounds_us() {
  std::vector<double> bounds;
  bounds.reserve(21);
  for (int i = 0; i <= 20; ++i) bounds.push_back(static_cast<double>(1u << i));
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  return counters_[Key{name, labels}];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return gauges_[Key{name, labels}];
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                                      std::vector<double> bounds) {
  const Key key{name, labels};
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_us();
    it = histograms_.emplace(key, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name, const Labels& labels) const {
  auto it = counters_.find({name, labels});
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(const std::string& name, const Labels& labels) const {
  auto it = gauges_.find({name, labels});
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  auto it = histograms_.find({name, labels});
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_total(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [key, c] : counters_) {
    if (key.first == name) total += c.value();
  }
  return total;
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

// Doubles in snapshots: plain decimal with enough precision to round-trip
// typical virtual-time values; never emits inf/nan (callers record finite
// values only).
void append_number(std::ostringstream& out, double v) {
  std::ostringstream num;
  num.precision(12);
  num << v;
  out << num.str();
}

void append_labels(std::ostringstream& out, const Labels& labels) {
  out << "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  out << "}";
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(key.first) << "\",";
    append_labels(out, key.second);
    out << ",\"value\":" << c.value() << "}";
  }
  out << "],\"gauges\":[";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(key.first) << "\",";
    append_labels(out, key.second);
    out << ",\"value\":";
    append_number(out, g.value());
    out << "}";
  }
  out << "],\"histograms\":[";
  first = true;
  for (const auto& [key, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(key.first) << "\",";
    append_labels(out, key.second);
    out << ",\"count\":" << h.count() << ",\"sum\":";
    append_number(out, h.sum());
    out << ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out << ",";
      append_number(out, h.bounds()[i]);
    }
    out << "],\"buckets\":[";
    const std::vector<std::uint64_t>& buckets = h.bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) out << ",";
      out << buckets[i];
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace mcrdl::obs
