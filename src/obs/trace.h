// Scoped-span tracer exporting Chrome trace_event JSON.
//
// Usage:
//   obs::Tracer::SetEnabled(true);                  // e.g. from AR_TRACE=1
//   { OBS_TRACE_SPAN("engine.round"); ... }         // RAII complete event
//   obs::Tracer::WriteChromeTrace("TRACE_run.json");
//
// Load the output in chrome://tracing or https://ui.perfetto.dev.
//
// Mechanics: every thread appends to its own buffer (registered with the
// global tracer on first use — thread-pool workers get buffers
// automatically, so the tracer is thread-pool-aware by construction). A
// span is two steady_clock reads plus one buffer append; when tracing is
// disabled a span is a single relaxed atomic load. Span/counter names must
// be string literals (only the pointer is stored).

#ifndef AUCTIONRIDE_OBS_TRACE_H_
#define AUCTIONRIDE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace auctionride {
namespace obs {

class Tracer {
 public:
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Turns span/counter recording on or off (off by default). Existing
  /// buffered events are kept.
  static void SetEnabled(bool on);

  /// Microseconds since the tracer's epoch (first use in the process).
  static int64_t NowMicros();

  /// Records a complete ("ph":"X") event on the calling thread's buffer.
  /// `name` and `category` must be string literals.
  static void RecordComplete(const char* name, const char* category,
                             int64_t ts_us, int64_t dur_us);

  /// Records a counter ("ph":"C") event, e.g. thread-pool queue depth.
  static void RecordCounter(const char* name, double value);

  /// Names the calling thread in the trace viewer ("M" metadata event).
  static void SetThreadName(const std::string& name);

  /// Serializes every buffered event to `path` as Chrome trace JSON.
  /// Safe to call while other threads keep tracing (their buffers are
  /// locked briefly, one at a time).
  static Status WriteChromeTrace(const std::string& path);

  /// Number of buffered events across all threads (tests, sizing).
  static std::size_t EventCount();

  /// Drops all buffered events (buffers stay registered).
  static void Clear();

 private:
  // Relaxed atomic flag, deliberately not ARIDE_GUARDED_BY any mutex: the
  // enabled check is the hot path (one load per span when tracing is off)
  // and tolerates arbitrary interleaving with SetEnabled. All mutable
  // buffer state lives behind annotated Mutexes in trace.cc.
  static std::atomic<bool> enabled_;
};

/// RAII span: records [construction, destruction) as a complete event.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "aride")
      : name_(Tracer::enabled() ? name : nullptr), category_(category) {
    if (name_ != nullptr) start_us_ = Tracer::NowMicros();
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::RecordComplete(name_, category_, start_us_,
                             Tracer::NowMicros() - start_us_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  int64_t start_us_ = 0;
};

}  // namespace obs
}  // namespace auctionride

#define OBS_TRACE_INTERNAL_CONCAT2(a, b) a##b
#define OBS_TRACE_INTERNAL_CONCAT(a, b) OBS_TRACE_INTERNAL_CONCAT2(a, b)

#if !defined(ARIDE_OBS_DISABLED)

#define OBS_TRACE_SPAN(name)                                     \
  ::auctionride::obs::TraceSpan OBS_TRACE_INTERNAL_CONCAT(       \
      obs_internal_span_, __LINE__)(name)

#define OBS_TRACE_SPAN_CAT(name, category)                       \
  ::auctionride::obs::TraceSpan OBS_TRACE_INTERNAL_CONCAT(       \
      obs_internal_span_, __LINE__)(name, category)

#define OBS_TRACE_COUNTER(name, value)                              \
  do {                                                              \
    if (::auctionride::obs::Tracer::enabled()) {                    \
      ::auctionride::obs::Tracer::RecordCounter(name, value);       \
    }                                                               \
  } while (0)

#else  // ARIDE_OBS_DISABLED

#define OBS_TRACE_SPAN(name)           \
  do {                                 \
    if (false) {                       \
      (void)(name);                    \
    }                                  \
  } while (0)
#define OBS_TRACE_SPAN_CAT(name, category) \
  do {                                     \
    if (false) {                           \
      (void)(name);                        \
      (void)(category);                    \
    }                                      \
  } while (0)
#define OBS_TRACE_COUNTER(name, value) \
  do {                                 \
    if (false) {                       \
      (void)(name);                    \
      (void)(value);                   \
    }                                  \
  } while (0)

#endif  // ARIDE_OBS_DISABLED

#endif  // AUCTIONRIDE_OBS_TRACE_H_
