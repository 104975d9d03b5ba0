#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

size_t RankIndex(size_t n, double p) {
  // The epsilon keeps an exact rank (0.99 * 2000) from rounding up.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  if (rank <= 1.0) return 0;
  return std::min(n - 1, static_cast<size_t>(rank) - 1);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[RankIndex(sorted.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(n, p) >= kMinBeyond) return p;
  }
  return 0.0;
}

Summary Summarize(std::vector<double>* samples, double want_tail_p) {
  Summary s;
  s.n = samples->size();
  if (s.n == 0) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = NearestRank(*samples, 0.5);
  s.tail_p = SamplesBeyond(s.n, want_tail_p) >= kMinBeyond
                 ? want_tail_p
                 : HighestSupportedPercentile(s.n);
  if (s.tail_p > 0.0) {
    s.tail = NearestRank(*samples, s.tail_p);
    s.tail_beyond = SamplesBeyond(s.n, s.tail_p);
  }
  return s;
}

SampleBuffer::SampleBuffer(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)) {
  kept_.reserve(capacity_);
}

void SampleBuffer::Add(double v) {
  ++offered_;
  if (--countdown_ > 0) return;  // a countdown, not a division per call
  const size_t index = offered_ - 1;  // a multiple of stride_
  if (kept_.size() == capacity_) {
    // Keep the even positions: they are exactly the values a buffer with
    // twice the stride would have kept.
    size_t w = 0;
    for (size_t r = 0; r < kept_.size(); r += 2) kept_[w++] = kept_[r];
    kept_.resize(w);
    stride_ *= 2;
    if (index % stride_ != 0) {
      countdown_ = stride_ / 2;
      return;
    }
  }
  countdown_ = stride_;
  kept_.push_back(v);
}

void SampleBuffer::AppendTo(std::vector<double>* out) const {
  out->insert(out->end(), kept_.begin(), kept_.end());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
