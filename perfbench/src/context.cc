#include "context.h"

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

ScopedCpuPin::ScopedCpuPin(unsigned k) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int n = CPU_COUNT(&saved_);
  if (n <= 0) return;
  int want = static_cast<int>(k % static_cast<unsigned>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string ContextJson(const std::string& workload, unsigned long long seed,
                        double seconds, bool trace, unsigned threads,
                        const std::string& git_hash,
                        const std::string& source_digest) {
  std::ostringstream os;
  os << "{\"nproc\":" << AvailableCpus() << ",\"threads\":" << threads
     << ",\"simd_tier\":\"" << mde::simd::TierName(mde::simd::ActiveTier())
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"git_hash\":\""
     << git_hash << "\",\"source_digest\":\"" << source_digest
     << "\",\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"seconds\":" << seconds << ",\"trace\":" << (trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace perfbench
