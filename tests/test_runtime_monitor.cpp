// One camera's warning service under injected faults, driven through the
// sequential serving reference (StreamServer::run_sequential) or, where a
// test must watch each frame, through StreamContext::tick(). The fail-safe
// gates must never feed a gapped window to the classifier as if it were
// contiguous, must tally fail-safe decisions separately in the online
// scorecard, and — with no faults — must leave every verdict to the model.
//
// The framework under test uses untrained (but deterministically
// initialized) models: the robustness machinery is about *when* the model
// is consulted, not about what it has learned.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "models/slowfast.h"
#include "serving/stream_server.h"

namespace safecross::core {
namespace {

using serving::StreamConfig;
using serving::StreamContext;
using serving::StreamServer;

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::unique_ptr<SafeCross> framework_with_daytime_model() {
  auto sc = std::make_unique<SafeCross>(tiny_config());
  sc->set_model(dataset::Weather::Daytime,
                std::make_unique<models::SlowFast>(tiny_config().model));
  return sc;
}

StreamConfig camera(std::uint64_t sim_seed, std::uint64_t collector_seed,
                    std::uint64_t fault_seed = 0xFA0117u) {
  StreamConfig cfg;
  cfg.sim_seed = sim_seed;
  cfg.collector_seed = collector_seed;
  cfg.fault_seed = fault_seed;
  return cfg;
}

/// One camera through the sequential reference, verdict trace recorded.
std::unique_ptr<StreamServer> run_camera(SafeCross& sc, const StreamConfig& cam,
                                         std::size_t frames) {
  serving::StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.record_traces = true;
  cfg.streams.push_back(cam);
  auto server = std::make_unique<StreamServer>(sc, cfg);
  server->run_sequential();
  return server;
}

using DecisionTrace = std::vector<std::tuple<std::size_t, int, float, bool>>;

DecisionTrace trace_of(const StreamServer& server) {
  DecisionTrace trace;
  for (const serving::DecisionRecord& d : server.stream(0).trace()) {
    trace.emplace_back(d.frame, d.predicted_class, d.prob_danger, d.warn);
  }
  return trace;
}

TEST(RuntimeMonitor, FailSafePolicyIsBitIdenticalWithoutFaults) {
  // Without faults no gate fires: every due window goes to the model, so
  // the served trace equals classifying each due window directly.
  auto sc = framework_with_daytime_model();
  const StreamConfig cam = camera(71, 72);
  constexpr std::size_t kFrames = 30 * 240;
  const DecisionTrace served = trace_of(*run_camera(*sc, cam, kFrames));

  StreamContext ctx(cam);
  DecisionTrace direct;
  while (ctx.frames_run() < kFrames) {
    const auto w = ctx.tick();
    if (!w) continue;
    ASSERT_EQ(w->gate, runtime::DecisionSource::Model) << "frame " << w->frame;
    const SafeCross::Decision d = sc->classify_as(dataset::Weather::Daytime, w->window);
    direct.emplace_back(w->frame, d.predicted_class, d.prob_danger, d.warn);
  }
  ASSERT_FALSE(served.empty()) << "the run produced no decisions to compare";
  EXPECT_EQ(served, direct);
}

TEST(RuntimeMonitor, GappedWindowNeverReachesModel) {
  auto sc = framework_with_daytime_model();
  StreamConfig cam = camera(73, 75, 74);
  cam.faults.drop_prob = 0.30;  // heavy frame loss: most windows carry a gap
  constexpr std::size_t kFrames = 30 * 120;

  StreamContext ctx(cam);
  std::size_t model_gates = 0, fail_safe_gates = 0;
  while (ctx.frames_run() < kFrames) {
    const auto w = ctx.tick();
    if (!w) continue;
    if (w->gate == runtime::DecisionSource::Model) {
      ++model_gates;
      // The invariant under test: a model verdict implies the window the
      // classifier sees is full, gap-free and sufficiently fresh.
      EXPECT_TRUE(ctx.collector().window_contiguous());
      EXPECT_EQ(w->window.size(), 32u);
    } else {
      ++fail_safe_gates;
      EXPECT_TRUE(w->window.empty()) << "a gated window must not be copied";
    }
  }
  ASSERT_NE(ctx.injector(), nullptr);
  EXPECT_GT(ctx.injector()->frames_dropped(), 0u);
  EXPECT_GT(fail_safe_gates, 0u) << "30% drops must force some fail-safe decisions";

  const auto server = run_camera(*sc, cam, kFrames);
  const StreamScorecard& card = server->stream(0).scorecard();
  EXPECT_EQ(card.fail_safe_decisions(), fail_safe_gates);
  EXPECT_EQ(card.model_decisions(), model_gates);
  for (const serving::DecisionRecord& d : server->stream(0).trace()) {
    if (d.source == runtime::DecisionSource::Model) continue;
    EXPECT_TRUE(d.warn) << "fail-safe decisions always warn";
    EXPECT_EQ(d.predicted_class, 0);
  }
}

TEST(RuntimeMonitor, ScorecardSeparatesFailSafeFromModelDecisions) {
  auto sc = framework_with_daytime_model();
  StreamConfig cam = camera(76, 78, 77);
  cam.faults.drop_prob = 0.10;
  cam.faults.freeze_prob = 0.10;
  cam.faults.noise_prob = 0.05;
  cam.faults.blackout_prob = 0.002;
  const auto server = run_camera(*sc, cam, 30 * 180);
  const StreamScorecard& card = server->stream(0).scorecard();

  EXPECT_EQ(card.decisions(), card.model_decisions() + card.fail_safe_decisions());
  EXPECT_EQ(card.decisions(), card.correct() + card.missed_threats() + card.false_warnings());
  EXPECT_LE(card.decisions(), card.decision_opportunities());
  // Per-source counts add up to the totals.
  std::size_t by_source_sum = 0;
  for (int s = 0; s < runtime::kDecisionSourceCount; ++s) {
    by_source_sum += card.fail_safe_by_source(static_cast<runtime::DecisionSource>(s));
  }
  EXPECT_EQ(by_source_sum, card.decisions());
  EXPECT_EQ(card.fail_safe_by_source(runtime::DecisionSource::Model), card.model_decisions());
}

TEST(RuntimeMonitor, SwitchFailureRunsFailSafeWithoutThrowing) {
  auto sc = framework_with_daytime_model();
  // Every swap attempt dies: no model can ever be made to serve.
  sc->switcher().set_failure_hook([](const std::string&) { return true; });
  const auto server = run_camera(*sc, camera(79, 81, 80), 30 * 240);  // must not throw
  sc->switcher().set_failure_hook(nullptr);

  const StreamScorecard& card = server->stream(0).scorecard();
  EXPECT_GT(card.decisions(), 0u);
  EXPECT_EQ(card.model_decisions(), 0u);
  for (const serving::DecisionRecord& d : server->stream(0).trace()) {
    EXPECT_EQ(d.source, runtime::DecisionSource::FailSafeSwitchInFlight);
    EXPECT_TRUE(d.warn);
  }
  EXPECT_GT(sc->switcher().failed_switches(), 0u);
}

TEST(RuntimeMonitor, BlackoutForcesConservativeDecisions) {
  StreamConfig cam = camera(82, 84, 83);
  cam.faults.blackout_prob = 0.01;
  cam.faults.blackout_frames = 60;  // two-second camera blindness
  StreamContext ctx(cam);
  while (ctx.frames_run() < 30 * 120) {
    const auto w = ctx.tick();
    if (w && ctx.injector()->current_frame_fault() == runtime::FrameFault::Blackout) {
      // Deciding *during* a blackout must never trust the model: the
      // window is mostly zeros regardless of what is on the road.
      EXPECT_TRUE(runtime::is_fail_safe(w->gate))
          << "frame " << w->frame << " decided from a blacked-out window";
    }
  }
  EXPECT_GT(ctx.injector()->blackout_frames_total(), 0u);
}

TEST(RuntimeMonitor, CameraDriftSelfHealsThroughRecalibration) {
  auto sc = framework_with_daytime_model();
  StreamConfig cam = camera(88, 90, 89);
  cam.faults.geometry.drift_px_per_frame = 0.04;  // ~1.2 px per 30-frame check
  cam.faults.geometry.drift_stop_frame = 600;     // then the camera holds still
  cam.recalib.enabled = true;
  const auto server = run_camera(*sc, cam, 30 * 240);
  const StreamContext& ctx = server->stream(0);

  std::size_t miscal_warns = 0, model_after_recovery = 0;
  for (const serving::DecisionRecord& d : ctx.trace()) {
    if (d.source == runtime::DecisionSource::FailSafeMiscalibrated) {
      ++miscal_warns;
      EXPECT_TRUE(d.warn) << "miscalibrated decisions must warn";
      EXPECT_EQ(d.predicted_class, 0);
    } else if (d.frame > 1500 && d.source == runtime::DecisionSource::Model) {
      ++model_after_recovery;
    }
  }
  const runtime::RecalibrationLoop* loop = ctx.recalibration();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->miscalibration_episodes(), 0u) << "drift never latched";
  EXPECT_GT(loop->recalibrations(), 0u) << "no solve ever landed";
  EXPECT_GT(miscal_warns, 0u) << "latch never gated a decision";
  EXPECT_GT(model_after_recovery, 0u) << "model never trusted again post-drift";
  EXPECT_EQ(loop->state(), runtime::CalibrationState::Calibrated);
  // The healed calibration tracks the injected perturbation to within the
  // drift threshold — the loop measured, chased and caught the camera.
  const runtime::RecalibrationConfig& rc = ctx.config().recalib;
  EXPECT_LT(runtime::view_drift_px(loop->applied_view(), ctx.injector()->view_perturbation(),
                                   rc.frame_width, rc.frame_height),
            rc.drift_threshold_px);
}

TEST(RuntimeMonitor, RecalibrationIdleWithoutDriftIsBitIdentical) {
  // With the loop enabled but the camera steady, drift checks run and must
  // all come back below threshold: no latch, no swap, and the decision
  // stream is bit-identical to a camera without the loop.
  auto sc = framework_with_daytime_model();
  StreamConfig cam = camera(91, 92);
  constexpr std::size_t kFrames = 30 * 120;
  const DecisionTrace baseline = trace_of(*run_camera(*sc, cam, kFrames));

  cam.recalib.enabled = true;
  const auto server = run_camera(*sc, cam, kFrames);
  const runtime::RecalibrationLoop* loop = server->stream(0).recalibration();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->checks_run(), 0u);
  EXPECT_EQ(loop->miscalibration_episodes(), 0u);
  EXPECT_EQ(loop->recalibrations(), 0u);
  EXPECT_EQ(trace_of(*server), baseline);
}

TEST(RuntimeMonitor, UninstallsSwitchHookOnDestruction) {
  // The dangling-hook hazard: a faulted camera served on a shared engine
  // must leave no callback behind on the engine's switcher once its
  // server (and the stream's injector with it) is gone.
  auto sc = framework_with_daytime_model();
  {
    StreamConfig cam = camera(86, 87, 85);
    cam.faults.drop_prob = 0.10;
    run_camera(*sc, cam, 30 * 60);
  }
  const auto status = sc->switcher().try_switch_to("daytime");
  EXPECT_TRUE(status.ok);
}

}  // namespace
}  // namespace safecross::core
