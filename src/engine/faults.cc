#include "engine/faults.h"

#include <cstdlib>

#include "common/check.h"

namespace auctionride {

std::string_view FaultProfileName(FaultProfile profile) {
  switch (profile) {
    case FaultProfile::kNone:
      return "none";
    case FaultProfile::kBreakdowns:
      return "breakdowns";
    case FaultProfile::kCancellations:
      return "cancellations";
    case FaultProfile::kStorm:
      return "storm";
  }
  return "unknown";
}

bool ParseFaultProfile(std::string_view name, FaultProfile* out) {
  ARIDE_ACHECK(out != nullptr);
  if (name == "none") {
    *out = FaultProfile::kNone;
  } else if (name == "breakdowns") {
    *out = FaultProfile::kBreakdowns;
  } else if (name == "cancellations") {
    *out = FaultProfile::kCancellations;
  } else if (name == "storm") {
    *out = FaultProfile::kStorm;
  } else {
    return false;
  }
  return true;
}

FaultOptions FaultOptionsForProfile(FaultProfile profile, uint64_t seed) {
  FaultOptions options;
  options.profile = profile;
  options.seed = seed;
  switch (profile) {
    case FaultProfile::kNone:
      break;
    case FaultProfile::kBreakdowns:
      options.breakdown_prob_per_round = 0.002;
      break;
    case FaultProfile::kCancellations:
      options.cancel_prob_per_round = 0.05;
      break;
    case FaultProfile::kStorm:
      options.breakdown_prob_per_round = 0.004;
      options.cancel_prob_per_round = 0.08;
      options.spike_prob_per_round = 0.25;
      options.spike_query_penalty_s = 5e-4;
      options.round_budget_s = 2.0;
      options.wall_clock_budget = false;  // keep the storm bit-reproducible
      break;
  }
  return options;
}

FaultOptions FaultOptionsFromEnv(uint64_t seed) {
  // The one environment read in src/: examples and benches call this to
  // honour the CI fault matrix, and library code takes FaultOptions.
  // NOLINTNEXTLINE-ARIDE(banned-api): named env entry point, see above
  const char* env = std::getenv("AR_FAULT_PROFILE");
  if (env == nullptr || env[0] == '\0') {
    return FaultOptionsForProfile(FaultProfile::kNone, seed);
  }
  FaultProfile profile = FaultProfile::kNone;
  ARIDE_ACHECK(ParseFaultProfile(env, &profile))
      << "unknown AR_FAULT_PROFILE \"" << env
      << "\" (expected none|breakdowns|cancellations|storm)";
  return FaultOptionsForProfile(profile, seed);
}

namespace {

// splitmix64 finalizer (same constants as Rng's seeding stage).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Domain-separation salts of the three decision families.
constexpr uint64_t kBreakdownSalt = 0x7c6f3b1d9a5e4f21ULL;
constexpr uint64_t kCancelSalt = 0x3d8a1c5b7e2f9d47ULL;
constexpr uint64_t kSpikeSalt = 0x5e9b2d7a4c1f8e63ULL;

}  // namespace

FaultPlan::FaultPlan(const FaultOptions& options) : options_(options) {
  const auto check_prob = [](double p, const char* name) {
    ARIDE_ACHECK(p >= 0 && p <= 1) << name << " must be in [0, 1], got " << p;
  };
  check_prob(options_.breakdown_prob_per_round, "breakdown_prob_per_round");
  check_prob(options_.cancel_prob_per_round, "cancel_prob_per_round");
  check_prob(options_.spike_prob_per_round, "spike_prob_per_round");
  ARIDE_ACHECK(options_.spike_query_penalty_s >= 0);
  ARIDE_ACHECK(options_.round_budget_s >= 0);
}

double FaultPlan::HashUniform(uint64_t salt, int round, int64_t id) const {
  // Chained finalizers over (seed, salt, round, id): every decision is an
  // independent O(1) lookup, so injection order cannot shift the schedule.
  uint64_t h = SplitMix64(options_.seed ^ salt);
  h = SplitMix64(h ^ static_cast<uint64_t>(round));
  h = SplitMix64(h ^ static_cast<uint64_t>(id));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultPlan::VehicleBreaksDown(int round, int64_t vehicle_id) const {
  if (options_.breakdown_prob_per_round <= 0) return false;
  return HashUniform(kBreakdownSalt, round, vehicle_id) <
         options_.breakdown_prob_per_round;
}

bool FaultPlan::OrderCancels(int round, int64_t order_id) const {
  if (options_.cancel_prob_per_round <= 0) return false;
  return HashUniform(kCancelSalt, round, order_id) <
         options_.cancel_prob_per_round;
}

bool FaultPlan::IsSpikeRound(int round) const {
  if (options_.spike_prob_per_round <= 0) return false;
  return HashUniform(kSpikeSalt, round, 0) < options_.spike_prob_per_round;
}

}  // namespace auctionride
