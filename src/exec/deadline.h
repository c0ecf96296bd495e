// Cooperative compute budget for one dispatch round (the fault-injection
// round time budget and the engine's service-mode budget,
// docs/ROBUSTNESS.md). Dispatchers poll expired() at deterministic cut
// points, and expiry finalizes the best-so-far partial result — completed
// packs / completed merge slots — so a budget bounds a round's latency while
// keeping every winner decided before the cut; a budget that never expires
// never changes a round's output.
//
// Two accounting modes:
//  - WallClock: real elapsed time plus synthetic charges count against the
//    budget. Production SLO mode; whether a run expires depends on machine
//    speed, so it is NOT bit-reproducible.
//  - Synthetic: only explicit Charge() calls count. The fault profiles use
//    this mode with deterministic per-query charges, making the expiry
//    decision — and therefore every simulation report — bit-identical for a
//    fixed seed at any dispatch thread count.
//
// Charges are integer nanoseconds on a relaxed atomic: addition is
// associative, so the accumulated total (and with it every expired()
// verdict at a serial cut point) does not depend on the order threads
// charge in.
//
// Thread-safety annotations: deliberately none. Every member is either
// const after construction (mode_, budget_ns_, query_penalty_ns_, start_)
// or a relaxed atomic (charged_ns_), so there is no capability to hold —
// see src/common/thread_annotations.h for when ARIDE_GUARDED_BY applies
// versus relying on atomics.

#ifndef AUCTIONRIDE_EXEC_DEADLINE_H_
#define AUCTIONRIDE_EXEC_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace auctionride {

class Deadline {
 public:
  /// Expires once real elapsed time plus synthetic charges reach
  /// `budget_s`. Not bit-reproducible across runs.
  // Budgets arrive as raw seconds from the DispatchBudget knob and are
  // converted straight to integer nanoseconds; src/exec/ sits below the
  // unit wall (it has no dependency on the domain layer).
  static Deadline WallClock(
      double budget_s) {  // NOLINT-ARIDE(raw-unit-double)
    return Deadline(Mode::kWall, ToNs(budget_s), 0);
  }

  /// Expires once synthetic charges reach `budget_s`; real time is ignored.
  /// `query_penalty_s` is the cost ChargeQueries() books per shortest-path
  /// query (latency-spike injection; may be 0).
  static Deadline Synthetic(
      double budget_s,  // NOLINT-ARIDE(raw-unit-double): below unit wall
      double query_penalty_s = 0) {
    return Deadline(Mode::kSynthetic, ToNs(budget_s), ToNs(query_penalty_s));
  }

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  /// Books synthetic work against the budget. Thread-safe.
  void Charge(int64_t cost_ns) {
    if (cost_ns > 0) charged_ns_.fetch_add(cost_ns, std::memory_order_relaxed);
  }

  /// Books `queries` shortest-path queries at the configured penalty (a
  /// no-op when the penalty is 0).
  void ChargeQueries(int64_t queries) { Charge(queries * query_penalty_ns_); }

  /// True once the budget is exhausted. Monotone: once expired, a deadline
  /// stays expired (charges are never removed).
  bool expired() const {
    switch (mode_) {
      case Mode::kWall:
        return ElapsedNs() + charged() >= budget_ns_;
      case Mode::kSynthetic:
        return charged() >= budget_ns_;
    }
    return false;
  }

  int64_t charged_ns() const { return charged(); }

 private:
  enum class Mode { kWall, kSynthetic };

  Deadline(Mode mode, int64_t budget_ns, int64_t query_penalty_ns)
      : mode_(mode),
        budget_ns_(budget_ns),
        query_penalty_ns_(query_penalty_ns),
        start_(std::chrono::steady_clock::now()) {}

  static int64_t ToNs(
      double seconds) {  // NOLINT-ARIDE(raw-unit-double): below unit wall
    return static_cast<int64_t>(seconds * 1e9);
  }

  int64_t charged() const {
    return charged_ns_.load(std::memory_order_relaxed);
  }

  int64_t ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  const Mode mode_;
  const int64_t budget_ns_;
  const int64_t query_penalty_ns_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<int64_t> charged_ns_{0};
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_EXEC_DEADLINE_H_
