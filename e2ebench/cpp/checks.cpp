#include "checks.h"

#include <cmath>
#include <cstring>

namespace e2e {

using safecross::runtime::DecisionSource;
using safecross::serving::DecisionRecord;

void Tally::error(std::string what) {
  // Keep the report readable when one fault repeats on every window.
  if (errors.size() < 20) errors.push_back(std::move(what));
}

namespace {

/// Why one applied verdict breaks a guaranteed property; empty when it
/// holds.
std::string verdict_fault(const DecisionRecord& d, float warn_threshold) {
  const float p = d.prob_danger;
  if (!(p >= 0.0f && p <= 1.0f)) return "P(danger) outside [0, 1]";
  if (d.source != DecisionSource::Model) {
    if (!d.warn) return "fail-safe verdict without a warning";
    return {};
  }
  if (d.warn != (p >= warn_threshold)) return "warn disagrees with P(danger) >= warn_threshold";
  // Two classes: the softmax row is (p, 1 - p) up to float rounding, so
  // the argmax is fixed unless p lies within rounding of 1/2.
  constexpr float kTie = 1e-6f;
  if (p > 0.5f + kTie && d.predicted_class != 0) return "class disagrees with the softmax row";
  if (p < 0.5f - kTie && d.predicted_class != 1) return "class disagrees with the softmax row";
  if (d.predicted_class != 0 && d.predicted_class != 1) return "class out of range";
  return {};
}

}  // namespace

void check_server(const safecross::serving::StreamServer& server,
                  const safecross::serving::StreamServerConfig& cfg, float warn_threshold,
                  bool batched, Tally& t) {
  std::size_t produced = 0;
  std::size_t model_verdicts = 0;
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    const auto& ctx = server.stream(i);
    const std::string name = ctx.config().name;
    const std::size_t windows = ctx.windows_produced();
    produced += windows;
    t.attempted += windows;
    if (ctx.frames_run() != cfg.frames) {
      t.error(name + ": ran " + std::to_string(ctx.frames_run()) + " of " +
              std::to_string(cfg.frames) + " frames");
    }
    if (server.stream_down(i)) t.error(name + ": stream down");
    if (batched && server.windows_shed(i) != 0) t.error(name + ": windows shed");
    if (ctx.scorecard().decisions() != windows) {
      t.error(name + ": " + std::to_string(ctx.scorecard().decisions()) + " verdicts for " +
              std::to_string(windows) + " windows");
    }
    model_verdicts += ctx.scorecard().model_decisions();
    const std::vector<DecisionRecord>& trace = ctx.trace();
    for (std::size_t seq = 0; seq < windows; ++seq) {
      // Frames are 1-based, so frame 0 marks a trace slot no verdict filled.
      if (seq >= trace.size() || trace[seq].frame == 0) {
        ++t.failed;
        t.error(name + " seq " + std::to_string(seq) + ": no applied verdict");
        continue;
      }
      const std::string fault = verdict_fault(trace[seq], warn_threshold);
      if (!fault.empty()) {
        ++t.failed;
        t.error(name + " seq " + std::to_string(seq) + ": " + fault);
      }
    }
    if (trace.size() > windows) t.error(name + ": verdicts for windows never produced");
  }
  if (server.latency_log().size() != produced) {
    t.error("latency_log holds " + std::to_string(server.latency_log().size()) +
            " entries for " + std::to_string(produced) + " windows");
  }
  if (!batched) return;
  if (server.streams_gave_up() != 0) t.error("a producer exhausted its retry budget");
  std::size_t batched_items = 0;
  const std::size_t max_batch =
      cfg.batcher.max_batch == 0 ? cfg.streams.size() : cfg.batcher.max_batch;
  for (const auto& b : server.batch_log()) {
    batched_items += b.size;
    if (b.size == 0 || b.size > max_batch) t.error("batch size outside [1, max_batch]");
  }
  if (batched_items != server.windows_batched() || batched_items != model_verdicts) {
    t.error("batched windows (" + std::to_string(batched_items) + ") != model verdicts (" +
            std::to_string(model_verdicts) + ")");
  }
}

void check_traces_equal(const std::vector<DecisionRecord>& a,
                        const std::vector<DecisionRecord>& b, const std::string& name,
                        Tally& t) {
  if (a.size() != b.size()) {
    t.error(name + ": batched trace has " + std::to_string(a.size()) + " verdicts, sequential " +
            std::to_string(b.size()));
    return;
  }
  for (std::size_t s = 0; s < a.size(); ++s) {
    const DecisionRecord& x = a[s];
    const DecisionRecord& y = b[s];
    const bool same = x.frame == y.frame && x.danger_truth == y.danger_truth &&
                      x.predicted_class == y.predicted_class &&
                      std::memcmp(&x.prob_danger, &y.prob_danger, sizeof(float)) == 0 &&
                      x.warn == y.warn && x.source == y.source &&
                      x.model_weather == y.model_weather && x.epoch == y.epoch;
    if (!same) {
      ++t.failed;
      t.error(name + " seq " + std::to_string(s) + ": batched verdict differs from sequential");
    }
  }
}

}  // namespace e2e
