#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace auctionride {
namespace obs {

namespace {

// SplitMix64: tiny deterministic generator for reservoir eviction slots.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Histogram::Options Histogram::TimerOptions() {
  Options opts;
  opts.bucket_bounds = ExponentialBounds(1e-6, 64.0, 4.0);
  opts.reservoir_capacity = 8192;
  return opts;
}

std::vector<double> Histogram::ExponentialBounds(double lo, double hi,
                                                 double factor) {
  ARIDE_ACHECK(lo > 0 && hi > lo && factor > 1);
  std::vector<double> bounds;
  for (double b = lo; b < hi * factor; b *= factor) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(Options opts) : opts_(std::move(opts)) {
  for (std::size_t i = 1; i < opts_.bucket_bounds.size(); ++i) {
    ARIDE_ACHECK(opts_.bucket_bounds[i - 1] < opts_.bucket_bounds[i])
        << "bucket bounds must be strictly ascending";
  }
  bucket_counts_.assign(opts_.bucket_bounds.size() + 1, 0);
}

void Histogram::Observe(double x) {
  MutexLock lock(mu_);
  stats_.Add(x);
  // Bucket: first bound >= x, else overflow.
  const auto it = std::lower_bound(opts_.bucket_bounds.begin(),
                                   opts_.bucket_bounds.end(), x);
  ++bucket_counts_[static_cast<std::size_t>(
      it - opts_.bucket_bounds.begin())];
  if (opts_.reservoir_capacity == 0 ||
      samples_.count() < opts_.reservoir_capacity) {
    samples_.Add(x);
    return;
  }
  // Algorithm R: keep each of the n seen samples with probability cap/n.
  const uint64_t slot = NextRandom(&rng_state_) % stats_.count();
  if (slot < opts_.reservoir_capacity) {
    samples_.ReplaceAt(static_cast<std::size_t>(slot), x);
  }
}

HistogramSummary Histogram::Summary() const {
  HistogramSummary out;
  std::vector<double> sorted;
  {
    MutexLock lock(mu_);
    out.count = stats_.count();
    out.sum = stats_.sum();
    out.mean = stats_.mean();
    out.min = stats_.min();
    out.max = stats_.max();
    out.stddev = stats_.stddev();
    sorted = samples_.samples();
    out.bucket_counts = bucket_counts_;
  }
  // Sorted outside the lock so Observe() callers wait only for the copy.
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    out.p50 = SampleSet::QuantileOfSorted(sorted, 0.50);
    out.p95 = SampleSet::QuantileOfSorted(sorted, 0.95);
    out.p99 = SampleSet::QuantileOfSorted(sorted, 0.99);
  }
  out.bucket_bounds = opts_.bucket_bounds;
  return out;
}

void Histogram::Reset() {
  MutexLock lock(mu_);
  stats_ = RunningStats();
  samples_ = SampleSet();
  bucket_counts_.assign(opts_.bucket_bounds.size() + 1, 0);
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // leaked
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        Histogram::Options opts) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  // First creation wins; later callers share the existing options.
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(opts));
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  // Only the name -> metric maps are read under the registry lock; values
  // (Histogram::Summary sorts a reservoir) are read after releasing it, so
  // a snapshot never stalls GetCounter/GetHistogram callers. Safe because
  // metrics are never erased: the pointers stay valid for the registry's
  // lifetime.
  std::vector<std::pair<const std::string*, const Counter*>> counters;
  std::vector<std::pair<const std::string*, const Gauge*>> gauges;
  std::vector<std::pair<const std::string*, const Histogram*>> histograms;
  {
    MutexLock lock(mu_);
    counters.reserve(counters_.size());
    gauges.reserve(gauges_.size());
    histograms.reserve(histograms_.size());
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(&name, c.get());
    }
    for (const auto& [name, g] : gauges_) gauges.emplace_back(&name, g.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(&name, h.get());
    }
  }
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters) snap.counters[*name] = c->value();
  for (const auto& [name, g] : gauges) snap.gauges[*name] = g->value();
  for (const auto& [name, h] : histograms) {
    snap.histograms[*name] = h->Summary();
  }
  return snap;
}

void MetricRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace obs
}  // namespace auctionride
