#include "obs/mem.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace mde::obs {

namespace {

std::string PoolCounterName(const char* pool, const char* leaf) {
  std::string name = "obs.mem.";
  name += pool;
  name += '.';
  name += leaf;
  return name;
}

}  // namespace

void RecordAlloc(const char* pool, uint64_t bytes) {
  if (bytes == 0) return;
  Registry::Global().counter(PoolCounterName(pool, "alloc_bytes"))->Add(bytes);
}

void RecordFree(const char* pool, uint64_t bytes) {
  if (bytes == 0) return;
  Registry::Global().counter(PoolCounterName(pool, "freed_bytes"))->Add(bytes);
}

MemPool::MemPool(const char* pool) {
  Registry& r = Registry::Global();
  alloc_ = r.counter(PoolCounterName(pool, "alloc_bytes"));
  freed_ = r.counter(PoolCounterName(pool, "freed_bytes"));
}

void MemPool::RecordAlloc(uint64_t bytes) {
  if (bytes != 0) alloc_->Add(bytes);
}

void MemPool::RecordFree(uint64_t bytes) {
  if (bytes != 0) freed_->Add(bytes);
}

uint64_t LiveBytes(const std::string& pool) {
  Registry& r = Registry::Global();
  const uint64_t alloc =
      r.counter("obs.mem." + pool + ".alloc_bytes")->Value();
  const uint64_t freed =
      r.counter("obs.mem." + pool + ".freed_bytes")->Value();
  return alloc > freed ? alloc - freed : 0;
}

ProcessMemory SampleProcessMemory() {
  ProcessMemory mem;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mem;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long kb = 0;
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) {
      mem.rss_kb = kb;
      mem.ok = true;
    } else if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      mem.peak_rss_kb = kb;
      mem.ok = true;
    }
  }
  std::fclose(f);
  return mem;
}

void PublishProcessMemoryGauges() {
  const ProcessMemory mem = SampleProcessMemory();
  if (!mem.ok) return;
  Registry& r = Registry::Global();
  r.gauge("obs.mem.rss_kb")->Set(static_cast<double>(mem.rss_kb));
  r.gauge("obs.mem.peak_rss_kb")->Set(static_cast<double>(mem.peak_rss_kb));
}

}  // namespace mde::obs
