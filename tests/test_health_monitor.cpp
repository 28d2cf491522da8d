#include "runtime/health_monitor.h"

#include <gtest/gtest.h>

namespace safecross::runtime {
namespace {

TEST(HealthMonitor, StartsNominal) {
  HealthMonitor hm;
  EXPECT_EQ(hm.state(), HealthState::Nominal);
  EXPECT_FALSE(hm.switch_in_flight());
}

TEST(HealthMonitor, MissingFramesEscalateThroughDegradedToFailSafe) {
  HealthConfig cfg;
  cfg.degraded_after_missing = 2;
  cfg.failsafe_after_missing = 8;
  HealthMonitor hm(cfg);
  hm.frame_missing();
  EXPECT_EQ(hm.state(), HealthState::Nominal);  // one missing frame is noise
  hm.frame_missing();
  EXPECT_EQ(hm.state(), HealthState::Degraded);
  for (int i = 0; i < 5; ++i) hm.frame_missing();
  EXPECT_EQ(hm.state(), HealthState::Degraded);
  hm.frame_missing();  // 8th consecutive
  EXPECT_EQ(hm.state(), HealthState::FailSafe);
}

TEST(HealthMonitor, RecoversOneLevelPerHealthyStreak) {
  HealthConfig cfg;
  cfg.recover_after_healthy = 10;
  HealthMonitor hm(cfg);
  for (int i = 0; i < 8; ++i) hm.frame_missing();
  ASSERT_EQ(hm.state(), HealthState::FailSafe);
  for (int i = 0; i < 9; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::FailSafe);  // streak not sustained yet
  hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Degraded);  // one level at a time
  for (int i = 0; i < 10; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, AFaultResetsTheHealthyStreak) {
  HealthConfig cfg;
  cfg.degraded_after_missing = 1;
  cfg.recover_after_healthy = 10;
  HealthMonitor hm(cfg);
  hm.frame_missing();
  ASSERT_EQ(hm.state(), HealthState::Degraded);
  for (int i = 0; i < 9; ++i) hm.frame_ok();
  hm.frame_degraded();  // a frozen frame spoils the streak
  for (int i = 0; i < 9; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Degraded);  // still not recovered
  hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, DegradedFramesNeverEscalateToFailSafeAlone) {
  HealthMonitor hm;
  for (int i = 0; i < 1000; ++i) hm.frame_degraded();
  EXPECT_EQ(hm.state(), HealthState::Degraded);
}

TEST(HealthMonitor, SwitchLatencyTranslatesIntoInFlightFrames) {
  HealthConfig cfg;
  cfg.frame_interval_ms = 1000.0 / 30.0;  // 33.33 ms
  HealthMonitor hm(cfg);
  hm.switch_started(100.0);  // ceil(100 / 33.3) = 3 frames
  EXPECT_TRUE(hm.switch_in_flight());
  EXPECT_EQ(hm.state(), HealthState::Degraded);
  hm.frame_ok();
  hm.frame_ok();
  EXPECT_TRUE(hm.switch_in_flight());
  hm.frame_ok();
  EXPECT_FALSE(hm.switch_in_flight());
}

TEST(HealthMonitor, InstantSwitchDoesNotDegrade) {
  HealthMonitor hm;
  hm.switch_started(0.0);
  EXPECT_FALSE(hm.switch_in_flight());
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, DeadlineDisabledByDefault) {
  HealthMonitor hm;
  EXPECT_FALSE(hm.deadline_blown(1e9));
}

TEST(HealthMonitor, DeadlineEnforcedWhenConfigured) {
  HealthConfig cfg;
  cfg.decision_deadline_ms = 50.0;
  HealthMonitor hm(cfg);
  EXPECT_FALSE(hm.deadline_blown(49.0));
  EXPECT_FALSE(hm.deadline_blown(50.0));
  EXPECT_TRUE(hm.deadline_blown(50.1));
}

TEST(HealthMonitor, WindowStaleness) {
  HealthConfig cfg;
  cfg.min_fresh_fraction = 0.75;
  HealthMonitor hm(cfg);
  EXPECT_FALSE(hm.window_stale(32, 32));
  EXPECT_FALSE(hm.window_stale(24, 32));  // exactly at the floor
  EXPECT_TRUE(hm.window_stale(23, 32));
  EXPECT_TRUE(hm.window_stale(0, 0));  // empty window is stale by definition
}

TEST(HealthMonitor, CountsFramesPerState) {
  HealthConfig cfg;
  cfg.degraded_after_missing = 1;
  HealthMonitor hm(cfg);
  hm.frame_ok();
  hm.frame_ok();
  hm.frame_missing();
  hm.frame_missing();
  EXPECT_EQ(hm.frames_in(HealthState::Nominal), 2u);
  EXPECT_EQ(hm.frames_in(HealthState::Degraded), 2u);
  EXPECT_GT(hm.transitions(), 0u);
}

TEST(HealthMonitor, DeEscalationTriggersExactlyAtTheStreakBoundary) {
  HealthConfig cfg;
  cfg.degraded_after_missing = 1;
  cfg.recover_after_healthy = 7;
  HealthMonitor hm(cfg);
  hm.frame_missing();
  ASSERT_EQ(hm.state(), HealthState::Degraded);
  // recover_after_healthy - 1 healthy frames: one short of the boundary.
  for (int i = 0; i < 6; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Degraded);
  hm.frame_ok();  // the 7th — exactly at the boundary
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, DeEscalationResetsTheStreakBetweenLevels) {
  HealthConfig cfg;
  cfg.failsafe_after_missing = 1;
  cfg.recover_after_healthy = 4;
  HealthMonitor hm(cfg);
  hm.frame_missing();
  ASSERT_EQ(hm.state(), HealthState::FailSafe);
  // The streak that bought FailSafe→Degraded must not also count toward
  // Degraded→Nominal: each level costs a full fresh streak.
  for (int i = 0; i < 4; ++i) hm.frame_ok();
  ASSERT_EQ(hm.state(), HealthState::Degraded);
  for (int i = 0; i < 3; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Degraded) << "streak must restart after stepping down";
  hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, ExternalLatchPinsFailSafeUntilCleared) {
  HealthConfig cfg;
  cfg.recover_after_healthy = 5;
  HealthMonitor hm(cfg);
  EXPECT_FALSE(hm.fail_safe_latched());
  hm.latch_fail_safe();  // a supervisor gave up on a stage
  EXPECT_TRUE(hm.fail_safe_latched());
  EXPECT_EQ(hm.state(), HealthState::Nominal) << "escalation waits for the frame clock";
  hm.frame_ok();  // first frame event after the latch
  EXPECT_EQ(hm.state(), HealthState::FailSafe);
  for (int i = 0; i < 100; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::FailSafe) << "no healthy streak clears the latch";
  hm.clear_fail_safe_latch();
  EXPECT_FALSE(hm.fail_safe_latched());
  for (int i = 0; i < 5; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Degraded);
  for (int i = 0; i < 5; ++i) hm.frame_ok();
  EXPECT_EQ(hm.state(), HealthState::Nominal);
}

TEST(HealthMonitor, DecisionSourceNamesAndFailSafePredicate) {
  EXPECT_STREQ(decision_source_name(DecisionSource::Model), "model");
  EXPECT_FALSE(is_fail_safe(DecisionSource::Model));
  EXPECT_TRUE(is_fail_safe(DecisionSource::FailSafeIncompleteWindow));
  EXPECT_TRUE(is_fail_safe(DecisionSource::FailSafeStaleWindow));
  EXPECT_TRUE(is_fail_safe(DecisionSource::FailSafeSwitchInFlight));
  EXPECT_TRUE(is_fail_safe(DecisionSource::FailSafeDeadline));
  EXPECT_TRUE(is_fail_safe(DecisionSource::FailSafeStageDown));
  EXPECT_STREQ(decision_source_name(DecisionSource::FailSafeStageDown), "failsafe-stage-down");
  EXPECT_STREQ(health_state_name(HealthState::FailSafe), "fail-safe");
}

}  // namespace
}  // namespace safecross::runtime
