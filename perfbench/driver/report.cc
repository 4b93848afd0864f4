#include "driver/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return is_alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  return ok;
}

double Checks::fail_share() const {
  return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void check_anchors(const Anchors& expected, const Anchors& got, const std::string& where,
                   Checks& checks) {
  std::ostringstream what;
  for (const auto& [name, want] : expected) {
    const auto it = got.find(name);
    bool ok = it != got.end();
    if (ok) {
      const double scale = std::max({std::fabs(want), std::fabs(it->second), 1e-300});
      ok = std::fabs(it->second - want) <= 1e-9 * scale;
    }
    if (!ok) {
      what << (what.tellp() > 0 ? "; " : where + ": ") << "anchor " << name << " expected "
           << json_number(want) << " got "
           << (it == got.end() ? std::string("nothing") : json_number(it->second));
    }
  }
  checks.expect(what.tellp() == 0, what.str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string result_json(const Result& result) {
  // A run that checked nothing proved nothing: it reports one failed check.
  const std::uint64_t attempted = std::max<std::uint64_t>(result.checks.attempted(), 1);
  const std::uint64_t failed =
      result.checks.attempted() == 0 ? std::uint64_t{1} : result.checks.failed();
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!first) out << ", ";
    first = false;
    out << json_string(m.name) << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
