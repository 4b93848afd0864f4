// Outside-in layer spans for the traced run.
//
// Probe stages are inserted into the public OpPipeline before every
// built-in stage (OpPipeline::insert_before). A probe opens a span named
// after the stage it precedes, calls the rest of the pipeline, and closes
// the span when the call returns, so a span covers its stage plus every
// stage downstream; its self time (duration minus what its child spans
// cover) is the stage's own cost. Times come from the actor thread's CPU
// clock, so an actor blocked in virtual time accrues nothing.
//
// The workloads add one more span of their own, "synchronize", around each
// host wait for outstanding work: the simulator applies the data effect of
// stream-ordered collectives (reductions, copies) while a host waits.
//
// Spans are kept in memory. Each operation's spans are folded into per-name
// self-time totals when its root span closes; the first `keep_limit` spans
// are also kept verbatim and written out at the end (kept_json()).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace perfbench {

struct Span {
  std::uint32_t name = 0;   // index into the recorder's name table
  std::uint64_t op = 0;     // operation id, shared by every span of one op
  double start_us = 0.0;    // actor-thread CPU clock
  double end_us = 0.0;
  std::int32_t parent = -1; // index of the parent within the op's spans; -1 = root
};

// Self time of every span of one operation: its duration minus the length
// of the union of its children's intervals (clipped to the span).
std::vector<double> self_times(const std::vector<Span>& op_spans);

class SpanRecorder {
 public:
  SpanRecorder(std::vector<std::string> names, std::size_t keep_limit);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Called on the actor thread. A span opened with no span open on the
  // thread is the root of a new operation.
  void open(std::uint32_t name);
  void close();

  const std::vector<std::string>& names() const { return names_; }
  // Totals over every folded operation (call once no span is open).
  double self_us(std::uint32_t name) const;
  double root_us() const;
  std::uint64_t ops() const;
  // Operations whose root span has this name.
  std::uint64_t roots(std::uint32_t name) const;
  std::string kept_json() const;

 private:
  struct ThreadState {
    std::uint64_t owner = 0;  // id of the recorder the buffers belong to
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;
  };
  ThreadState& thread_state();
  void fold(const std::vector<Span>& op_spans);

  const std::uint64_t id_;
  const std::vector<std::string> names_;
  const std::size_t keep_limit_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<double> self_us_;
  double root_us_ = 0.0;
  std::uint64_t ops_ = 0;
  std::vector<std::uint64_t> roots_;
  std::vector<Span> kept_;
};

// Inserts one probe before every built-in stage of `mcr`'s pipeline
// (overhead ... issue). Span names are the stage names. Must run between
// operations, like any insert_before.
void install_probes(mcrdl::McrDl& mcr, SpanRecorder& recorder);

// CPU time one probe adds to the span that encloses it (its open and close
// bookkeeping and clock reads), averaged over `rounds` empty nested spans.
double probe_overhead_us(int rounds = 20000);

}  // namespace perfbench
