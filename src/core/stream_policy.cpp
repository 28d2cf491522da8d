#include "core/stream_policy.h"

#include "common/stats.h"

namespace safecross::core {

using runtime::DecisionSource;

const char* stream_priority_name(StreamPriority p) {
  switch (p) {
    case StreamPriority::Critical: return "critical";
    case StreamPriority::Standard: return "standard";
    case StreamPriority::BestEffort: return "best-effort";
  }
  return "?";
}

void StreamScorecard::score(bool danger_truth, int predicted_class, bool warn,
                            DecisionSource source) {
  ++decisions_;
  if (warn) ++warnings_;
  if (runtime::is_fail_safe(source)) ++fail_safe_decisions_;
  ++by_source_[static_cast<int>(source)];
  const bool said_danger = predicted_class == 0;
  if (said_danger == danger_truth) {
    ++correct_;
  } else if (danger_truth) {
    ++missed_threats_;
  } else {
    ++false_warnings_;
  }
}

double StreamScorecard::latency_percentile(double p) const {
  if (latencies_.empty()) return 0.0;
  return percentile(latencies_, p);
}

void StreamScorecard::save_state(common::StateWriter& w) const {
  w.u64(decisions_);
  w.u64(warnings_);
  w.u64(correct_);
  w.u64(missed_threats_);
  w.u64(false_warnings_);
  w.u64(fail_safe_decisions_);
  w.u64(decision_opportunities_);
  for (std::size_t n : by_source_) w.u64(n);
  w.u64(latencies_.size());
  for (double ms : latencies_) w.f64(ms);
}

void StreamScorecard::load_state(common::StateReader& r) {
  decisions_ = static_cast<std::size_t>(r.u64());
  warnings_ = static_cast<std::size_t>(r.u64());
  correct_ = static_cast<std::size_t>(r.u64());
  missed_threats_ = static_cast<std::size_t>(r.u64());
  false_warnings_ = static_cast<std::size_t>(r.u64());
  fail_safe_decisions_ = static_cast<std::size_t>(r.u64());
  decision_opportunities_ = static_cast<std::size_t>(r.u64());
  for (std::size_t& n : by_source_) n = static_cast<std::size_t>(r.u64());
  const std::uint64_t n_lat = r.u64();
  latencies_.clear();
  latencies_.reserve(static_cast<std::size_t>(n_lat));
  for (std::uint64_t i = 0; i < n_lat; ++i) latencies_.push_back(r.f64());
}

}  // namespace safecross::core
