#include "runtime/health_monitor.h"

#include <cmath>

namespace safecross::runtime {

const char* health_state_name(HealthState s) {
  switch (s) {
    case HealthState::Nominal: return "nominal";
    case HealthState::Degraded: return "degraded";
    case HealthState::FailSafe: return "fail-safe";
  }
  return "?";
}

const char* decision_source_name(DecisionSource s) {
  switch (s) {
    case DecisionSource::Model: return "model";
    case DecisionSource::FailSafeIncompleteWindow: return "failsafe-incomplete-window";
    case DecisionSource::FailSafeStaleWindow: return "failsafe-stale-window";
    case DecisionSource::FailSafeSwitchInFlight: return "failsafe-switch-in-flight";
    case DecisionSource::FailSafeDeadline: return "failsafe-deadline";
    case DecisionSource::FailSafeStageDown: return "failsafe-stage-down";
    case DecisionSource::FailSafeMiscalibrated: return "failsafe-miscalibrated";
    case DecisionSource::FleetDegraded: return "fleet-degraded";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthConfig config) : config_(config) {}

void HealthMonitor::escalate(HealthState target) {
  if (static_cast<int>(target) <= static_cast<int>(state_)) return;
  state_ = target;
  healthy_streak_ = 0;
  ++transitions_;
}

void HealthMonitor::on_frame_event() {
  // The supervisor latch is raised from another thread; the state machine
  // only reacts here, on the frame clock, so state_ stays single-writer.
  if (fail_safe_latched()) escalate(HealthState::FailSafe);
  if (switch_frames_left_ > 0) --switch_frames_left_;
  ++frames_in_[static_cast<int>(state_)];
}

void HealthMonitor::frame_ok() {
  missing_streak_ = 0;
  ++healthy_streak_;
  // De-escalate one level at a time after a sustained healthy streak.
  if (healthy_streak_ >= config_.recover_after_healthy && state_ != HealthState::Nominal &&
      !miscalibrated_ && !fail_safe_latched() && switch_frames_left_ == 0) {
    state_ = static_cast<HealthState>(static_cast<int>(state_) - 1);
    healthy_streak_ = 0;
    ++transitions_;
  }
  on_frame_event();
}

void HealthMonitor::frame_missing() {
  ++missing_streak_;
  healthy_streak_ = 0;
  if (missing_streak_ >= config_.failsafe_after_missing) {
    escalate(HealthState::FailSafe);
  } else if (missing_streak_ >= config_.degraded_after_missing) {
    escalate(HealthState::Degraded);
  }
  on_frame_event();
}

void HealthMonitor::frame_degraded() {
  // Present-but-untrustworthy frames end any healthy streak and are
  // degraded-grade evidence, but never escalate all the way to FailSafe
  // on their own (the stale-window check guards decisions directly).
  missing_streak_ = 0;
  healthy_streak_ = 0;
  escalate(HealthState::Degraded);
  on_frame_event();
}

void HealthMonitor::switch_started(double delay_ms) {
  const double frames = delay_ms / config_.frame_interval_ms;
  switch_frames_left_ = static_cast<int>(std::ceil(frames));
  if (switch_frames_left_ > 0) escalate(HealthState::Degraded);
}

void HealthMonitor::save_state(common::StateWriter& w) const {
  w.boolean(external_latch_.load(std::memory_order_acquire));
  w.u8(static_cast<std::uint8_t>(state_));
  w.i32(missing_streak_);
  w.i32(healthy_streak_);
  w.i32(switch_frames_left_);
  w.boolean(miscalibrated_);
  w.u64(transitions_);
  for (std::size_t n : frames_in_) w.u64(n);
}

void HealthMonitor::load_state(common::StateReader& r) {
  external_latch_.store(r.boolean(), std::memory_order_release);
  state_ = static_cast<HealthState>(r.u8());
  missing_streak_ = r.i32();
  healthy_streak_ = r.i32();
  switch_frames_left_ = r.i32();
  miscalibrated_ = r.boolean();
  transitions_ = static_cast<std::size_t>(r.u64());
  for (std::size_t& n : frames_in_) n = static_cast<std::size_t>(r.u64());
}

}  // namespace safecross::runtime
