#include "driver/spans.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "driver/host.h"
#include "driver/report.h"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

double safe_div_us(double total_us, int count) { return count > 0 ? total_us / count : 0.0; }

class ProbeStage : public mcrdl::OpStage {
 public:
  ProbeStage(SpanRecorder* recorder, std::uint32_t span, std::string label)
      : recorder_(recorder), span_(span), label_(std::move(label)) {}

  const char* name() const override { return label_.c_str(); }

  mcrdl::Work run(mcrdl::OpCall&, const mcrdl::OpNext& next) override {
    recorder_->open(span_);
    struct Closer {
      SpanRecorder* recorder;
      ~Closer() { recorder->close(); }
    } closer{recorder_};
    return next();
  }

 private:
  SpanRecorder* recorder_;
  std::uint32_t span_;
  std::string label_;
};

}  // namespace

std::vector<double> self_times(const std::vector<Span>& op_spans) {
  std::vector<std::vector<std::pair<double, double>>> children(op_spans.size());
  for (const Span& s : op_spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < op_spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(op_spans.size(), 0.0);
  for (std::size_t i = 0; i < op_spans.size(); ++i) {
    const Span& s = op_spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;  // end of the union covered so far
    for (auto [from, to] : kids) {
      from = std::max(from, reach);
      to = std::min(to, s.end_us);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

SpanRecorder::SpanRecorder(std::vector<std::string> names, std::size_t keep_limit)
    : id_(g_next_recorder_id.fetch_add(1)),
      names_(std::move(names)),
      keep_limit_(keep_limit),
      self_us_(names_.size(), 0.0),
      roots_(names_.size(), 0) {}

SpanRecorder::ThreadState& SpanRecorder::thread_state() {
  thread_local ThreadState state;
  if (state.owner != id_) {
    state.owner = id_;
    state.spans.clear();
    state.stack.clear();
  }
  return state;
}

void SpanRecorder::open(std::uint32_t name) {
  ThreadState& st = thread_state();
  Span s;
  s.name = name;
  s.parent = st.stack.empty() ? -1 : st.stack.back();
  st.stack.push_back(static_cast<std::int32_t>(st.spans.size()));
  st.spans.push_back(s);
  // Read the clock last so the bookkeeping above is not billed to the span.
  st.spans.back().start_us = thread_cpu_us();
}

void SpanRecorder::close() {
  const double now = thread_cpu_us();
  ThreadState& st = thread_state();
  if (st.stack.empty()) return;
  st.spans[static_cast<std::size_t>(st.stack.back())].end_us = now;
  st.stack.pop_back();
  if (st.stack.empty()) {
    fold(st.spans);
    st.spans.clear();
  }
}

void SpanRecorder::fold(const std::vector<Span>& op_spans) {
  const std::vector<double> self = self_times(op_spans);
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t op = ++ops_;
  for (std::size_t i = 0; i < op_spans.size(); ++i) {
    const Span& s = op_spans[i];
    if (s.name < self_us_.size()) self_us_[s.name] += self[i];
    if (s.parent < 0) {
      root_us_ += s.end_us - s.start_us;
      if (s.name < roots_.size()) ++roots_[s.name];
    }
  }
  if (kept_.size() + op_spans.size() <= keep_limit_) {
    for (Span s : op_spans) {
      s.op = op;
      kept_.push_back(s);
    }
  }
}

double SpanRecorder::self_us(std::uint32_t name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return name < self_us_.size() ? self_us_[name] : 0.0;
}

double SpanRecorder::root_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return root_us_;
}

std::uint64_t SpanRecorder::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::uint64_t SpanRecorder::roots(std::uint32_t name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return name < roots_.size() ? roots_[name] : 0;
}

std::string SpanRecorder::kept_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"clock\": \"thread_cpu_us\", \"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? ", " : "") << json_string(names_[i]);
  }
  out << "],\n \"fields\": [\"name\", \"op\", \"start_us\", \"end_us\", \"parent\"],\n \"spans\": [";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << (i ? ",\n  " : "\n  ") << "[" << s.name << ", " << s.op << ", "
        << json_number(s.start_us) << ", " << json_number(s.end_us) << ", " << s.parent << "]";
  }
  out << "]}\n";
  return out.str();
}

double probe_overhead_us(int rounds) {
  SpanRecorder calib({"outer", "inner"}, 0);
  for (int i = 0; i < rounds; ++i) {
    calib.open(0);
    calib.open(1);
    calib.close();
    calib.close();
  }
  return safe_div_us(calib.self_us(0), rounds);
}

void install_probes(mcrdl::McrDl& mcr, SpanRecorder& recorder) {
  const std::vector<std::string> stages = mcr.pipeline().stage_names();
  for (const std::string& stage : stages) {
    const auto it = std::find(recorder.names().begin(), recorder.names().end(), stage);
    if (it == recorder.names().end()) continue;
    const auto span = static_cast<std::uint32_t>(it - recorder.names().begin());
    mcr.pipeline().insert_before(
        stage, std::make_unique<ProbeStage>(&recorder, span, "probe." + stage));
  }
}

}  // namespace perfbench
