// Streaming summary statistics used by the metrics accounting and benches.

#ifndef AUCTIONRIDE_COMMON_STATS_H_
#define AUCTIONRIDE_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"

namespace auctionride {

/// Accumulates count/sum/min/max/mean/variance without storing samples.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    // Welford's online update.
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples; supports exact quantiles. Intended for modest sample
/// counts (per-round latencies, per-order utilities).
///
/// Thread-safety: like std::vector — concurrent const readers are safe
/// (Quantile() selects into a copy instead of sorting in place); writers
/// (Add/ReplaceAt) require external synchronization against everything
/// else (obs::Histogram wraps one behind a mutex for the concurrent case).
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); }

  /// Overwrites the sample at index i (reservoir-sampling support for the
  /// bounded-memory histograms in obs/metrics.h).
  void ReplaceAt(std::size_t i, double x) {
    ARIDE_CHECK_LT(i, samples_.size());
    samples_[i] = x;
  }

  std::size_t count() const { return samples_.size(); }

  double sum() const {
    double s = 0;
    for (double x : samples_) s += x;
    return s;
  }

  double mean() const {
    return samples_.empty() ? 0.0
                            : sum() / static_cast<double>(samples_.size());
  }

  /// Exact quantile by nearest-rank; q in [0, 1]. Requires samples.
  /// Const-safe: selects into a copy, so concurrent readers never race.
  double Quantile(double q) const {
    ARIDE_CHECK(!samples_.empty());
    ARIDE_CHECK(q >= 0.0 && q <= 1.0);
    std::vector<double> copy = samples_;
    const std::size_t idx = QuantileIndex(q, copy.size());
    std::nth_element(copy.begin(), copy.begin() + static_cast<long>(idx),
                     copy.end());
    return copy[idx];
  }

  // Convenience percentiles used by the histogram export (obs/metrics.h).
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

  /// Nearest-rank quantile of an already-sorted sample vector.
  static double QuantileOfSorted(const std::vector<double>& sorted, double q) {
    ARIDE_CHECK(!sorted.empty());
    ARIDE_CHECK(q >= 0.0 && q <= 1.0);
    return sorted[QuantileIndex(q, sorted.size())];
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  static std::size_t QuantileIndex(double q, std::size_t n) {
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
    return std::min(idx, n - 1);
  }

  std::vector<double> samples_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_COMMON_STATS_H_
