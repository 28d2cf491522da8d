#pragma once
// Computations made apart from the program, to check its outputs:
//
//  * VP reference — plain loops for the FullVP step (running-average
//    background, |F - B| > t, 3x3 opening with a zero border,
//    inverse-homography bilinear sample, > 0.5) and for the FastTopdown
//    noise step, run on frames rendered in lockstep from the stream's own
//    sim and noise seeds and compared with SegmentCollector's grid;
//  * forward reference — a plain-loop SlowFast forward in double
//    precision built from the served model's params()/buffers().
//
// Neither calls the nn convolution backends or the GEMM kernels.

#include <cstddef>
#include <string>
#include <vector>

#include "checks.h"
#include "core/safecross.h"
#include "models/slowfast.h"
#include "serving/stream_server.h"

namespace e2e {

/// Outcome of one VP replay. FullVP: a cell may differ from the reference
/// only when the reference's bilinear value lies within kVpCellTolerance of
/// 0.5, or when one of its bilinear taps sits within two pixels of a frame
/// pixel whose |F - B| lies within kVpDiffTolerance of the bg-sub
/// threshold (float vs double background rounding). The binary opening
/// itself must match vision::opening exactly. FastTopdown: every cell must
/// match.
struct VpCheck {
  std::size_t frames = 0;
  std::size_t cells = 0;
  std::size_t tolerated = 0;          // differing cells inside the tolerance
  std::size_t mismatched = 0;         // differing cells outside it
  std::size_t mask_pixels = 0;        // bg-sub mask pixels compared (FullVP)
  std::size_t mask_mismatched = 0;    // outside the rounding band
  std::size_t opening_mismatched = 0;  // vision::opening vs the reference
  bool ok() const { return mismatched == 0 && mask_mismatched == 0 && opening_mismatched == 0; }
};

inline constexpr double kVpCellTolerance = 1e-3;
inline constexpr double kVpDiffTolerance = 1e-5;
/// |served P(danger) - reference P(danger)| allowed by the forward check.
inline constexpr double kForwardTolerance = 1e-4;

/// Ticks a fresh StreamContext built from `sc` for `frames` frames while
/// recomputing every frame's VP output in lockstep. Model-gated windows the
/// replay produces are appended to `windows`; the collector's rolling
/// window at the end is copied to `last_window`.
VpCheck replay_vp_check(const safecross::serving::StreamConfig& sc, std::size_t frames,
                        std::vector<safecross::serving::ReadyWindow>& windows,
                        std::vector<safecross::vision::Image>& last_window);

/// P(danger) of one 32-frame window by the plain-loop forward. Throws
/// std::runtime_error when the model's parameter layout is not the
/// default SlowFast's.
double reference_p_danger(safecross::models::SlowFast& model,
                          const std::vector<safecross::vision::Image>& window);

/// The seeded sample of reference checks for one finished round. Picks a
/// stream that received model verdicts, replays it up to a seeded choice of
/// its first model windows while checking the VP output of every replayed
/// frame, then checks the forward reference on those windows against the
/// served P(danger) in `traces` and on the replay's last full window
/// against classify_as. Findings go to `t`; returns a one-line summary.
std::string reference_checks(safecross::core::SafeCross& engine,
                             const safecross::serving::StreamServerConfig& cfg,
                             const std::vector<std::vector<safecross::serving::DecisionRecord>>& traces,
                             std::uint64_t sample_seed, Tally& t);

}  // namespace e2e
