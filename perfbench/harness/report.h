// Shared plumbing of the dispatch benchmark harness: metric maps, exact
// quantiles, the outcome-digest hash, and the harness's own span recorder.
//
// Every time the harness reports is taken here, from outside the library:
// spans wrap calls into the public entry points, and layer counts are read
// through public accessors and the metric registry. Nothing under src/ is
// instrumented for the benchmark.

#ifndef AUCTIONRIDE_PERFBENCH_REPORT_H_
#define AUCTIONRIDE_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace auctionride {
namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank quantile (the library's SampleSet convention); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// 64-bit FNV-1a over a stream of integers and doubles (bit patterns), for
/// the per-run outcome digest.
class Fnv64 {
 public:
  void Add(uint64_t x);
  void Add(double x);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Monotonic seconds since the first call in the process.
double NowSeconds();

/// Peak resident set size of the process, MB (getrusage).
double PeakRssMb();

/// In-memory recorder of the harness's own spans. Spans nest by scope on
/// the calling (main) thread; when enabled each span is also forwarded to
/// obs::Tracer so the Chrome trace shows harness and library spans together.
class SpanRecorder {
 public:
  struct Record {
    const char* name = nullptr;  // string literal
    double start_s = 0;
    double dur_s = 0;
    int parent = -1;
  };

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int Begin(const char* name);
  void End(int index);

  const std::vector<Record>& records() const { return records_; }

  /// Per span name: count, total and self seconds (self = duration minus
  /// the part covered by direct child spans).
  obs::Json SelfTimes() const;
  /// Σ direct-child durations ÷ duration, over every span named `root`.
  double Coverage(const char* root) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// RAII wrapper over SpanRecorder::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// What one workload run hands back to main().
struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics end_to_end;  // --trace 0
  Metrics per_layer;   // --trace 1
  obs::Json detail = obs::Json::Object();  // digests, checks, span table
  std::vector<std::string> problems;       // failed checks, human-readable
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       // test scale
  std::string out_dir;     // Chrome trace destination
};

/// Worker threads runnable at once in every workload (the reference host's
/// nproc).
inline constexpr int kWorkerThreads = 4;

}  // namespace perfbench
}  // namespace auctionride

#endif  // AUCTIONRIDE_PERFBENCH_REPORT_H_
