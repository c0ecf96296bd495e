#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace auctionride {
namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1 ? 0
               : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[idx];
}

void Fnv64::Add(uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (x >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv64::Add(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  Add(bits);
}

std::string Fnv64::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_s = NowSeconds();
  records_.push_back(r);
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  Record& r = records_[static_cast<std::size_t>(index)];
  r.dur_s = NowSeconds() - r.start_s;
  open_.pop_back();
  if (obs::Tracer::enabled()) {
    // Tracer timestamps are µs on its own epoch; convert via the span's
    // end so the harness spans line up with library spans.
    const int64_t end_us = obs::Tracer::NowMicros();
    const int64_t dur_us = static_cast<int64_t>(std::llround(r.dur_s * 1e6));
    obs::Tracer::RecordComplete(r.name, "perfbench", end_us - dur_us, dur_us);
  }
}

obs::Json SpanRecorder::SelfTimes() const {
  std::vector<double> child_sum(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_sum[static_cast<std::size_t>(r.parent)] += r.dur_s;
  }
  struct Acc {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    Acc& a = by_name[records_[i].name];
    ++a.count;
    a.total_s += records_[i].dur_s;
    a.self_s += records_[i].dur_s - child_sum[i];
  }
  obs::Json out = obs::Json::Object();
  for (const auto& [name, a] : by_name) {
    obs::Json row = obs::Json::Object();
    row["count"] = a.count;
    row["total_s"] = a.total_s;
    row["self_s"] = a.self_s;
    out[name] = row;
  }
  return out;
}

double SpanRecorder::Coverage(const char* root) const {
  double root_s = 0;
  double covered_s = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (std::strcmp(records_[i].name, root) != 0) continue;
    root_s += records_[i].dur_s;
    for (const Record& c : records_) {
      if (c.parent == static_cast<int>(i)) covered_s += c.dur_s;
    }
  }
  return root_s > 0 ? covered_s / root_s : 0;
}

}  // namespace perfbench
}  // namespace auctionride
