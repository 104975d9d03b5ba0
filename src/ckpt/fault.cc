#include "ckpt/fault.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace mde::ckpt {

namespace {

const char* Env(const char* name) { return std::getenv(name); }

}  // namespace

FaultInjector::Config FaultInjector::FromEnv() {
  Config c;
  if (const char* p = Env("MDE_FAULT_POINT")) c.point = p;
  if (const char* at = Env("MDE_FAULT_AT")) {
    c.fire_at_hit = std::strtoull(at, nullptr, 10);
    if (c.fire_at_hit > 0) c.enabled = true;
  }
  if (const char* prob = Env("MDE_FAULT_PROB")) {
    c.probability = std::strtod(prob, nullptr);
    if (c.probability > 0.0) c.enabled = true;
  }
  if (const char* seed = Env("MDE_FAULT_SEED")) {
    c.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* mx = Env("MDE_FAULT_MAX")) {
    c.max_faults = std::strtoull(mx, nullptr, 10);
  }
  return c;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector(FromEnv());
  return *injector;
}

void FaultInjector::Configure(const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  rng_ = Rng(config.seed);
  hits_.clear();
  fired_ = 0;
}

bool FaultInjector::ShouldFail(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t hit = ++hits_[point];
  if (!config_.enabled || fired_ >= config_.max_faults) return false;
  if (!config_.point.empty() && config_.point != point) return false;
  bool fire = false;
  if (config_.fire_at_hit > 0) {
    fire = hit == config_.fire_at_hit;
  } else if (config_.probability > 0.0) {
    fire = rng_.NextDouble() < config_.probability;
  }
  if (fire) {
    ++fired_;
    MDE_OBS_COUNT("fault.injected", 1);
  }
  return fire;
}

void FaultInjector::MaybeFail(const std::string& point) {
  if (ShouldFail(point)) {
    uint64_t hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hit = hits_[point];
    }
    // Flight dump BEFORE the throw: the injected fault models a crash, so
    // the recorder must capture what every thread was doing at the fault
    // site, not after unwinding. Dump failures are ignored — the injected
    // fault is the event under test.
    obs::FlightRecorder::Global().DumpToFile(
        obs::FlightRecorder::DefaultPath(), "fault:" + point);
    throw FaultInjected(point, hit);
  }
}

uint64_t FaultInjector::faults_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

uint64_t FaultInjector::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

double RetryPolicy::BackoffMs(size_t attempt) const {
  return backoff_initial_ms * std::pow(backoff_factor,
                                       static_cast<double>(attempt));
}

Status RetryPolicy::Run(const std::string& what,
                        const std::function<Status()>& fn) const {
  for (size_t attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const FaultInjected& fault) {
      if (attempt >= max_retries) {
        return Status::Internal(what + ": retries exhausted after " +
                                std::to_string(max_retries) +
                                " attempts: " + fault.what());
      }
      MDE_OBS_COUNT("fault.retries", 1);
      if (sleep) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            BackoffMs(attempt)));
      }
    }
  }
}

}  // namespace mde::ckpt
