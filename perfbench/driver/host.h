// Host clocks, resource usage and host metadata for the benchmark.
#pragma once

#include <string>

namespace perfbench {

// Monotonic wall clock, seconds.
double wall_s();
// CPU time of the calling thread, microseconds. Excludes time the thread
// spent blocked, so an actor's reading covers only its own work.
double thread_cpu_us();

// CPU time of the whole process (every thread), seconds.
double process_cpu_s();

// Process-wide resource usage (every thread, live or exited).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  // voluntary + involuntary

  static Usage now();
  double cpu_s() const { return user_s + sys_s; }
  Usage operator-(const Usage& before) const;
};

// Pins the process, and every thread it starts afterwards, to the allowed
// CPU that was idlest over a short /proc/stat window. The serial engine runs
// one actor at a time, so one CPU loses no parallelism. It also saves every
// baton handoff a cross-CPU wake-up, whose latency depends on what else the
// host runs. Returns the CPU, or -1 when it could not pin.
int pin_to_idlest_cpu();

// CPU seconds the calling thread takes for one fixed unit of host work
// shaped like the simulator's own (map churn, a sort, indirect calls), built
// from the standard library only, so no change to the simulator moves it.
double reference_unit_cpu_s();

// Peak resident set of this process, MiB.
double peak_rss_mb();

// {"nproc":..,"cpu_model":..,"thp":..,"build_type":..,"engine":..,"affinity":..}
std::string host_json();

}  // namespace perfbench
