#include "measure.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

HostCpu read_host_cpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted inside user and nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    cpu.total += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

double steal_pct(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double process_cpu_seconds(pid_t pid) {
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  double ns = 0;
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu_ns = 0;
    if (in >> on_cpu_ns) ns += on_cpu_ns;
  }
  return ns * 1e-9;
}

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::pin(std::size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

double calibration_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    // Four independent xorshift chains: throughput-bound, so the loop also
    // slows when another guest shares the physical core.
    std::uint64_t x[4] = {1, 2, 3, 4};
    for (int i = 0; i < 10'000'000; ++i)
      for (std::uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
    // Keep the loop observable so it cannot be folded away.
    volatile std::uint64_t sink = x[0] ^ x[1] ^ x[2] ^ x[3];
    (void)sink;
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(ms);
}

}  // namespace perfbench
