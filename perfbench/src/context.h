#ifndef PERFBENCH_CONTEXT_H_
#define PERFBENCH_CONTEXT_H_

#include <sched.h>

#include <string>

/// Run context recorded beside every result: numbers from different
/// machines, SIMD tiers or build types are not comparable.
namespace perfbench {

/// CPUs this process may run on (sched_getaffinity), at least 1.
unsigned AvailableCpus();

/// Pins the calling thread to the `k`-th CPU it may use (modulo their
/// number) and restores its previous CPU set on destruction. Rotating a
/// single-threaded operation over the CPUs makes each run sample every
/// CPU alike; on a shared host one CPU can run much faster than another
/// for minutes at a time.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(unsigned k);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMb();

/// One JSON object: nproc, threads used, SIMD tier, build type, git hash,
/// source digest, workload, seed, seconds, trace.
std::string ContextJson(const std::string& workload, unsigned long long seed,
                        double seconds, bool trace, unsigned threads,
                        const std::string& git_hash,
                        const std::string& source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_CONTEXT_H_
