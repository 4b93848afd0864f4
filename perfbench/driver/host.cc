#include "driver/host.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "driver/report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::string first_line_matching(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return "";
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

// The bracketed choice of a sysfs multiple-choice file ("always [madvise] never").
std::string sysfs_choice(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return "unknown";
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return line;
  return line.substr(open + 1, close - open - 1);
}

// CPUs this process may run on, as a compact list ("0-3").
std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::ostringstream out;
  int run_start = -1;
  int prev = -2;
  bool first = true;
  const auto flush = [&] {
    if (run_start < 0) return;
    if (!first) out << ",";
    first = false;
    out << run_start;
    if (prev > run_start) out << "-" << prev;
  };
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (cpu != prev + 1) {
      flush();
      run_start = cpu;
    }
    prev = cpu;
  }
  flush();
  return out.str();
}

// Idle jiffies (idle + iowait) per CPU from /proc/stat.
std::map<int, double> idle_jiffies() {
  std::map<int, double> idle;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] < '0' || line[3] > '9') continue;
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    double user = 0, nice = 0, system = 0, idle_t = 0, iowait = 0;
    if (fields >> cpu >> user >> nice >> system >> idle_t >> iowait) idle[cpu] = idle_t + iowait;
  }
  return idle;
}

}  // namespace

int pin_to_idlest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  const std::map<int, double> before = idle_jiffies();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::map<int, double> after = idle_jiffies();
  int best = -1;
  double best_idle = -1.0;
  for (const auto& [cpu, idle] : after) {
    if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) continue;
    const auto it = before.find(cpu);
    const double delta = it == before.end() ? 0.0 : idle - it->second;
    if (delta >= best_idle) {
      best = cpu;
      best_idle = delta;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

double reference_unit_cpu_s() {
  const double t0 = thread_cpu_us();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::uint64_t> m;
  for (int i = 0; i < 2048; ++i) m[next() % 8192] = x;
  std::uint64_t sum = 0;
  for (int i = 0; i < 2048; ++i) sum += m.count(next() % 8192);
  for (int i = 0; i < 2048; ++i) m.erase(next() % 8192);
  std::vector<double> v(4096);
  for (double& d : v) d = static_cast<double>(next() % 100000);
  std::sort(v.begin(), v.end());
  std::vector<std::function<void()>> calls;
  std::vector<std::uint64_t> out;
  out.reserve(4096);
  for (int i = 0; i < 4096; ++i) calls.emplace_back([&out, i, s = m.size()] { out.push_back(i + s); });
  for (const auto& f : calls) f();
  static volatile std::uint64_t sink;
  sink = sum + out.back() + static_cast<std::uint64_t>(v[v.size() / 2]);
  return 1e-6 * (thread_cpu_us() - t0);
}

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e6 * static_cast<double>(ts.tv_sec) + 1e-3 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = seconds_of(ru.ru_utime);
  u.sys_s = seconds_of(ru.ru_stime);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw) + static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage Usage::operator-(const Usage& before) const {
  Usage d;
  d.user_s = user_s - before.user_s;
  d.sys_s = sys_s - before.sys_s;
  d.ctx_switches = ctx_switches - before.ctx_switches;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string host_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << json_string(first_line_matching("/proc/cpuinfo", "model name"))
      << ", \"thp\": " << json_string(sysfs_choice("/sys/kernel/mm/transparent_hugepage/enabled"))
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"engine\": \"serial\", \"affinity\": " << json_string(affinity_list()) << "}";
  return out.str();
}

}  // namespace perfbench
