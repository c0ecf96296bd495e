// Thread-safe metrics registry: counters, gauges, and histograms.
//
// Design goals, in order:
//   1. Hot-path cost: a counter bump is one relaxed atomic add; the
//      registry lookup happens once per call site (cached in a function-
//      local static by the OBS_* macros).
//   2. Thread safety everywhere: any thread may bump any metric while any
//      other thread snapshots the registry.
//   3. Bounded memory: histograms combine fixed buckets (lock-free-ish
//      counting under a short mutex) with an exact SampleSet that can be
//      capped via reservoir sampling for unbounded-volume series
//      (per-shortest-path-query latencies).
//
// Metric names are dot-separated literals ("planner.insertion_s"); the
// catalog lives in docs/OBSERVABILITY.md. Compile out every instrumentation
// point by defining ARIDE_OBS_DISABLED (CMake: -DARIDE_OBS=OFF).

#ifndef AUCTIONRIDE_OBS_METRICS_H_
#define AUCTIONRIDE_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/striped_counter.h"
#include "common/thread_annotations.h"

namespace auctionride {
namespace obs {

namespace internal {

// Swallows macro arguments in ARIDE_OBS_DISABLED builds: called under
// `if (false)` so arguments are type-checked but never evaluated, without
// the -Wunused-value a comma expression would raise.
template <typename... Args>
inline void IgnoreUnused(const Args&...) {}

}  // namespace internal

/// Monotonically increasing event count. Hot metrics are striped across
/// cache-line-padded cells so concurrent bumps from a thread pool don't
/// ping-pong one line (see common/striped_counter.h).
using Counter = StripedCounter;

/// Last-written (or max-tracked) instantaneous value.
class Gauge {
 public:
  void Set(double x) { v_.store(x, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `x` if larger (peak tracking, e.g. queue depth).
  void Max(double x) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < x && !v_.compare_exchange_weak(cur, x,
                                                std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram, safe to use lock-free.
struct HistogramSummary {
  uint64_t count = 0;  // total observations (including reservoir-evicted)
  double sum = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  // Fixed buckets: bucket_counts[i] counts x <= bucket_bounds[i]; the final
  // entry of bucket_counts is the overflow bucket (x > last bound).
  std::vector<double> bucket_bounds;
  std::vector<uint64_t> bucket_counts;
};

/// Latency/value distribution: RunningStats (exact count/sum/moments) +
/// fixed buckets + a SampleSet for exact quantiles, optionally capped with
/// reservoir sampling so memory stays bounded on hot series.
class Histogram {
 public:
  struct Options {
    // Ascending upper bounds; one overflow bucket is appended implicitly.
    std::vector<double> bucket_bounds;
    // 0 = keep every sample (exact quantiles). N > 0 = uniform reservoir of
    // N samples once more than N observations arrive (quantiles become
    // estimates, but unbiased and memory-bounded).
    std::size_t reservoir_capacity = 0;
  };

  /// Defaults tuned for latencies in seconds: exponential bounds from 1 µs
  /// to ~67 s (factor 4) and an 8192-sample reservoir.
  static Options TimerOptions();

  /// `factor`-spaced bounds covering [lo, hi]: lo, lo·f, lo·f², … >= hi.
  static std::vector<double> ExponentialBounds(double lo, double hi,
                                               double factor);

  Histogram() : Histogram(Options()) {}
  explicit Histogram(Options opts);

  void Observe(double x);

  /// Sampling helper for very hot call sites: returns true on every
  /// `period`-th call per stripe (one relaxed fetch_add on the calling
  /// thread's own cell — no shared line). Time only the sampled calls;
  /// quantiles stay representative while the common case pays ~one atomic.
  bool Tick(uint32_t period) {
    if (period <= 1) return true;
    return ticks_[ThreadStripe()].v.fetch_add(
               1, std::memory_order_relaxed) %
               period ==
           0;
  }

  HistogramSummary Summary() const;
  void Reset();

 private:
  mutable Mutex mu_;
  Options opts_;  // immutable after construction
  RunningStats stats_ ARIDE_GUARDED_BY(mu_);
  SampleSet samples_ ARIDE_GUARDED_BY(mu_);
  std::vector<uint64_t> bucket_counts_ ARIDE_GUARDED_BY(mu_);
  // Reservoir RNG (SplitMix64), advanced only under mu_.
  uint64_t rng_state_ ARIDE_GUARDED_BY(mu_) = 0x9e3779b97f4a7c15ULL;
  struct alignas(64) TickCell {
    std::atomic<uint64_t> v{0};
  };
  TickCell ticks_[kCounterStripes];
};

/// Snapshot of the whole registry at one instant (each metric is read
/// atomically; the set is not a consistent cut across metrics, which is
/// fine for reporting).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

class MetricRegistry {
 public:
  /// Process-wide registry used by the OBS_* macros. Never destroyed
  /// (leaked on purpose) so instrumentation in static destructors is safe.
  static MetricRegistry& Global();

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Get-or-create. Returned pointers are stable for the registry's
  // lifetime; ResetAll() zeroes values but never invalidates them.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          Histogram::Options opts = Histogram::Options{});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric in place (tests and per-run isolation). Cached
  /// pointers at macro call sites stay valid.
  void ResetAll();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ARIDE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      ARIDE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ARIDE_GUARDED_BY(mu_);
};

/// RAII timer observing its lifetime (seconds) into a histogram. With
/// `period` > 1 only every period-th construction is timed (see
/// Histogram::Tick); pass nullptr to make it inert.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* h, uint32_t period = 1)
      : h_(h != nullptr && h->Tick(period) ? h : nullptr) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedHistogramTimer() {
    if (h_ != nullptr) {
      h_->Observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace auctionride

#define OBS_INTERNAL_CONCAT2(a, b) a##b
#define OBS_INTERNAL_CONCAT(a, b) OBS_INTERNAL_CONCAT2(a, b)

#if !defined(ARIDE_OBS_DISABLED)

// Each macro resolves its metric once (thread-safe function-local static)
// and then pays only the atomic update.
#define OBS_COUNTER_ADD(name, n)                                          \
  do {                                                                    \
    static ::auctionride::obs::Counter* obs_internal_counter =            \
        ::auctionride::obs::MetricRegistry::Global().GetCounter(name);    \
    obs_internal_counter->Add(n);                                         \
  } while (0)

#define OBS_GAUGE_SET(name, x)                                            \
  do {                                                                    \
    static ::auctionride::obs::Gauge* obs_internal_gauge =                \
        ::auctionride::obs::MetricRegistry::Global().GetGauge(name);      \
    obs_internal_gauge->Set(x);                                           \
  } while (0)

#define OBS_GAUGE_MAX(name, x)                                            \
  do {                                                                    \
    static ::auctionride::obs::Gauge* obs_internal_gauge =                \
        ::auctionride::obs::MetricRegistry::Global().GetGauge(name);      \
    obs_internal_gauge->Max(x);                                           \
  } while (0)

#define OBS_HISTOGRAM_OBSERVE(name, x)                                    \
  do {                                                                    \
    static ::auctionride::obs::Histogram* obs_internal_hist =             \
        ::auctionride::obs::MetricRegistry::Global().GetHistogram(name);  \
    obs_internal_hist->Observe(x);                                        \
  } while (0)

// Declaration form: times the rest of the enclosing scope into a
// TimerOptions histogram, sampling one in `period` executions.
#define OBS_SCOPED_TIMER_SAMPLED(name, period)                             \
  static ::auctionride::obs::Histogram* OBS_INTERNAL_CONCAT(               \
      obs_internal_hist_, __LINE__) =                                      \
      ::auctionride::obs::MetricRegistry::Global().GetHistogram(           \
          name, ::auctionride::obs::Histogram::TimerOptions());            \
  ::auctionride::obs::ScopedHistogramTimer OBS_INTERNAL_CONCAT(            \
      obs_internal_timer_, __LINE__)(                                      \
      OBS_INTERNAL_CONCAT(obs_internal_hist_, __LINE__), period)

#define OBS_SCOPED_TIMER(name) OBS_SCOPED_TIMER_SAMPLED(name, 1)

#else  // ARIDE_OBS_DISABLED

// No-ops: arguments are parsed (so they cannot bit-rot) but never
// evaluated.
#define OBS_INTERNAL_IGNORE(...)                                \
  do {                                                          \
    if (false) {                                                \
      ::auctionride::obs::internal::IgnoreUnused(__VA_ARGS__);  \
    }                                                           \
  } while (0)

#define OBS_COUNTER_ADD(name, n) OBS_INTERNAL_IGNORE(name, n)
#define OBS_GAUGE_SET(name, x) OBS_INTERNAL_IGNORE(name, x)
#define OBS_GAUGE_MAX(name, x) OBS_INTERNAL_IGNORE(name, x)
#define OBS_HISTOGRAM_OBSERVE(name, x) OBS_INTERNAL_IGNORE(name, x)
#define OBS_SCOPED_TIMER_SAMPLED(name, period) \
  OBS_INTERNAL_IGNORE(name, period)
#define OBS_SCOPED_TIMER(name) OBS_INTERNAL_IGNORE(name)

#endif  // ARIDE_OBS_DISABLED

#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

#endif  // AUCTIONRIDE_OBS_METRICS_H_
