// Measurement primitives of the benchmark harness: order statistics,
// process and host counters read from /proc, and the calibration loop that
// tells a slow host from a slow program.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile: the ceil(p * n)-th smallest value; 0 when empty.
double percentile(std::vector<double> v, double p);

/// Samples that lie above the nearest-rank percentile `p` of `n` samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Host-wide CPU time from the aggregate line of /proc/stat, in ticks.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostCpu read_host_cpu();

/// Share of host CPU time stolen by the hypervisor between two readings,
/// in percent.
double steal_pct(const HostCpu& before, const HostCpu& after);

/// CPU seconds process `pid` has run, summed over its live threads from
/// /proc/<pid>/task/*/schedstat (nanoseconds, so a short round reads
/// exactly; a thread that has exited no longer counts).
double process_cpu_seconds(pid_t pid);

/// User + system CPU seconds of this process (all threads).
double self_cpu_seconds();

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// `pid` is 0, in MB (2^20 bytes). 0 when unreadable.
double peak_rss_mb(pid_t pid);

/// Pins the calling thread to one allowed CPU after another, and restores
/// its original affinity when destroyed. On a VM whose vCPUs share physical
/// cores with other guests, one vCPU can run the same code at half the
/// speed of another; rotating a single-threaded workload over every vCPU
/// makes a run average them instead of depending on where it landed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the (k mod n)-th allowed CPU.
  void pin(std::size_t k);

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Milliseconds for a fixed integer loop that touches no program code:
/// the median of five timings. Taken before and after a workload, it moves
/// with the host (frequency, a busy sibling hyperthread), not with the
/// program.
double calibration_ms();

}  // namespace perfbench
