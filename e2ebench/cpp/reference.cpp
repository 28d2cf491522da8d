#include "reference.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/rng.h"
#include "sim/camera.h"
#include "sim/traffic.h"
#include "sim/weather.h"
#include "vision/background_subtraction.h"
#include "vision/morphology.h"

namespace e2e {

using safecross::dataset::Weather;
using safecross::vision::Image;

namespace {

// ---------------------------------------------------------------- VP ---

/// 3x3 binary opening, pixels outside the frame counting as 0.
std::vector<char> opening3(const std::vector<char>& in, int w, int h) {
  auto pass = [w, h](const std::vector<char>& src, bool erode) {
    std::vector<char> out(src.size(), 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        bool all = true, any = false;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int xx = x + dx, yy = y + dy;
            const bool set = xx >= 0 && yy >= 0 && xx < w && yy < h && src[yy * w + xx] != 0;
            all = all && set;
            any = any || set;
          }
        }
        out[y * w + x] = erode ? all : any;
      }
    }
    return out;
  };
  return pass(pass(in, true), false);
}

/// The FullVP step in plain loops, with the background in double.
class FullVpReference {
 public:
  FullVpReference(const safecross::vision::Homography& image_to_grid, int grid_w, int grid_h)
      : grid_w_(grid_w), grid_h_(grid_h) {
    // Adjugate inverse of the image->grid homography: grid cell -> image.
    const auto& m = image_to_grid.matrix();
    std::array<double, 9> inv{m[4] * m[8] - m[5] * m[7], m[2] * m[7] - m[1] * m[8],
                              m[1] * m[5] - m[2] * m[4], m[5] * m[6] - m[3] * m[8],
                              m[0] * m[8] - m[2] * m[6], m[2] * m[3] - m[0] * m[5],
                              m[3] * m[7] - m[4] * m[6], m[1] * m[6] - m[0] * m[7],
                              m[0] * m[4] - m[1] * m[3]};
    const double det = m[0] * inv[0] + m[1] * inv[3] + m[2] * inv[6];
    for (double& v : inv) v /= det;
    inv_ = inv;
  }

  /// Runs one camera frame through the reference and the lockstep
  /// vision:: functions, and compares with the collector's grid.
  void step(const Image& frame, const Image& served_grid, VpCheck& out) {
    const int w = frame.width(), h = frame.height();
    const std::size_t n = frame.size();
    std::vector<char> raw(n, 0), ambiguous(n, 0);
    const double a = static_cast<double>(cfg_.learning_rate);
    const double thr = static_cast<double>(cfg_.threshold);
    if (bg_.empty()) {
      bg_.assign(frame.data(), frame.data() + n);
      seen_ = 1;
    } else {
      for (std::size_t i = 0; i < n; ++i) bg_[i] = (1.0 - a) * bg_[i] + a * frame.data()[i];
      ++seen_;
      if (seen_ > cfg_.warmup_frames) {
        for (std::size_t i = 0; i < n; ++i) {
          const double d = std::fabs(frame.data()[i] - bg_[i]);
          raw[i] = d > thr;
          ambiguous[i] = std::fabs(d - thr) <= kVpDiffTolerance;
        }
      }
    }
    const std::vector<char> opened = opening3(raw, w, h);
    // An opened pixel depends on the raw pixels within two of it.
    std::vector<char> uncertain(n, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (!ambiguous[y * w + x]) continue;
        for (int yy = std::max(0, y - 2); yy <= std::min(h - 1, y + 2); ++yy) {
          for (int xx = std::max(0, x - 2); xx <= std::min(w - 1, x + 2); ++xx) {
            uncertain[yy * w + xx] = 1;
          }
        }
      }
    }

    // The opening is exact: vision::opening on the reference's raw mask.
    Image raw_img(w, h);
    for (std::size_t i = 0; i < n; ++i) raw_img.data()[i] = raw[i] ? 1.0f : 0.0f;
    const Image lib_open = safecross::vision::opening(raw_img);
    for (std::size_t i = 0; i < n; ++i) {
      if ((lib_open.data()[i] > 0.5f) != (opened[i] != 0)) ++out.opening_mismatched;
    }
    // The library's bg-sub (with opening) on the same frame.
    const Image lib_mask = lib_bg_.apply(frame);
    for (std::size_t i = 0; i < n; ++i) {
      ++out.mask_pixels;
      if ((lib_mask.data()[i] > 0.5f) != (opened[i] != 0) && !uncertain[i]) {
        ++out.mask_mismatched;
      }
    }

    for (int gy = 0; gy < grid_h_; ++gy) {
      for (int gx = 0; gx < grid_w_; ++gx) {
        double value = 0.0;
        bool tap_uncertain = false;
        const double hw = inv_[6] * gx + inv_[7] * gy + inv_[8];
        double sx = 0.0, sy = 0.0;
        if (std::fabs(hw) >= 1e-12) {
          sx = (inv_[0] * gx + inv_[1] * gy + inv_[2]) / hw;
          sy = (inv_[3] * gx + inv_[4] * gy + inv_[5]) / hw;
        }
        if (sx >= 0 && sy >= 0 && sx <= w - 1 && sy <= h - 1) {
          const float xf = static_cast<float>(sx), yf = static_cast<float>(sy);
          const int x0 = std::min(static_cast<int>(xf), w - 1);
          const int y0 = std::min(static_cast<int>(yf), h - 1);
          const int x1 = std::min(x0 + 1, w - 1), y1 = std::min(y0 + 1, h - 1);
          const double fx = xf - x0, fy = yf - y0;
          auto m = [&](int x, int y) {
            tap_uncertain = tap_uncertain || uncertain[y * w + x];
            return opened[y * w + x] ? 1.0 : 0.0;
          };
          value = (m(x0, y0) * (1 - fx) + m(x1, y0) * fx) * (1 - fy) +
                  (m(x0, y1) * (1 - fx) + m(x1, y1) * fx) * fy;
        }
        ++out.cells;
        if ((value > 0.5) == (served_grid.at(gx, gy) > 0.5f)) continue;
        if (tap_uncertain || std::fabs(value - 0.5) <= kVpCellTolerance) {
          ++out.tolerated;
        } else {
          ++out.mismatched;
        }
      }
    }
  }

 private:
  safecross::vision::BackgroundSubtractionConfig cfg_;  // the collector's defaults
  safecross::vision::RunningAverageBackground lib_bg_{cfg_};
  int grid_w_, grid_h_;
  std::array<double, 9> inv_{};
  std::vector<double> bg_;
  int seen_ = 0;
};

/// The FastTopdown step: the sim's ideal occupancy plus weather noise,
/// drawn from the collector's noise stream in the same cell order.
Image fast_topdown_reference(const safecross::sim::CameraModel& camera,
                             const safecross::sim::TrafficSimulator& sim,
                             const safecross::dataset::CollectorConfig& vp, safecross::Rng& rng) {
  Image grid = camera.rasterize_topdown(sim, vp.grid_w, vp.grid_h);
  float speckle = vp.speckle_base, dropout = 0.0f;
  switch (sim.weather().weather) {
    case Weather::Rain: speckle = vp.speckle_rain; dropout = vp.dropout_rain; break;
    case Weather::Snow: speckle = vp.speckle_snow; dropout = vp.dropout_snow; break;
    case Weather::Night: speckle = vp.speckle_night; dropout = vp.dropout_night; break;
    case Weather::Fog: speckle = vp.speckle_fog; dropout = vp.dropout_fog; break;
    default: break;
  }
  const int gh = grid.height();
  for (int y = 0; y < gh; ++y) {
    const float dist = 0.4f + 1.2f * (1.0f - static_cast<float>(y) / static_cast<float>(gh - 1));
    const float p_drop = std::min(0.9f, dropout * dist);
    for (int x = 0; x < grid.width(); ++x) {
      float& cell = grid.at(x, y);
      if (cell > 0.5f) {
        if (p_drop > 0.0f && rng.bernoulli(p_drop)) cell = 0.0f;
      } else if (rng.bernoulli(speckle)) {
        cell = 1.0f;
      }
    }
  }
  return grid;
}

// ----------------------------------------------------------- forward ---

struct Vol {
  int c = 0, t = 0, h = 0, w = 0;
  std::vector<double> v;
  Vol(int c_, int t_, int h_, int w_) : c(c_), t(t_), h(h_), w(w_), v(std::size_t(c_) * t_ * h_ * w_) {}
  double& at(int ci, int ti, int y, int x) {
    return v[((std::size_t(ci) * t + ti) * h + y) * w + x];
  }
  double at(int ci, int ti, int y, int x) const {
    return v[((std::size_t(ci) * t + ti) * h + y) * w + x];
  }
};

/// Zero-padded 3-D cross-correlation; weight (out, in, kt, ks, ks).
Vol conv3d(const Vol& in, const safecross::nn::Tensor& weight, const safecross::nn::Tensor& bias,
           int stride_t, int stride_s, int pad_t, int pad_s) {
  const int oc_n = weight.dim(0), ic_n = weight.dim(1), kt = weight.dim(2), ks = weight.dim(3);
  if (ic_n != in.c || weight.dim(4) != ks || bias.numel() != static_cast<std::size_t>(oc_n)) {
    throw std::runtime_error("reference forward: conv shape mismatch");
  }
  Vol out(oc_n, (in.t + 2 * pad_t - kt) / stride_t + 1, (in.h + 2 * pad_s - ks) / stride_s + 1,
          (in.w + 2 * pad_s - ks) / stride_s + 1);
  const float* wt = weight.data();
  for (int oc = 0; oc < oc_n; ++oc) {
    for (int ot = 0; ot < out.t; ++ot) {
      for (int oy = 0; oy < out.h; ++oy) {
        for (int ox = 0; ox < out.w; ++ox) {
          double sum = bias.data()[oc];
          for (int ic = 0; ic < ic_n; ++ic) {
            for (int dt = 0; dt < kt; ++dt) {
              const int it = ot * stride_t - pad_t + dt;
              if (it < 0 || it >= in.t) continue;
              for (int dy = 0; dy < ks; ++dy) {
                const int iy = oy * stride_s - pad_s + dy;
                if (iy < 0 || iy >= in.h) continue;
                for (int dx = 0; dx < ks; ++dx) {
                  const int ix = ox * stride_s - pad_s + dx;
                  if (ix < 0 || ix >= in.w) continue;
                  sum += wt[(((std::size_t(oc) * ic_n + ic) * kt + dt) * ks + dy) * ks + dx] *
                         in.at(ic, it, iy, ix);
                }
              }
            }
          }
          out.at(oc, ot, oy, ox) = sum;
        }
      }
    }
  }
  return out;
}

/// Eval-mode batch norm (running statistics) then ReLU. eps is
/// BatchNorm's default, which every SlowFast block uses.
void bn_relu(Vol& x, const safecross::nn::Tensor& gamma, const safecross::nn::Tensor& beta,
             const safecross::nn::Tensor& mean, const safecross::nn::Tensor& var) {
  constexpr double kEps = 1e-5;
  const std::size_t per = x.v.size() / x.c;
  for (int c = 0; c < x.c; ++c) {
    const double scale = gamma.data()[c] / std::sqrt(static_cast<double>(var.data()[c]) + kEps);
    for (std::size_t i = 0; i < per; ++i) {
      double& y = x.v[c * per + i];
      y = scale * (y - mean.data()[c]) + beta.data()[c];
      if (y < 0.0) y = 0.0;
    }
  }
}

Vol concat(const Vol& a, const Vol& b) {
  Vol out(a.c + b.c, a.t, a.h, a.w);
  std::copy(a.v.begin(), a.v.end(), out.v.begin());
  std::copy(b.v.begin(), b.v.end(), out.v.begin() + static_cast<std::ptrdiff_t>(a.v.size()));
  return out;
}

std::vector<double> channel_means(const Vol& x) {
  const std::size_t per = x.v.size() / x.c;
  std::vector<double> m(x.c, 0.0);
  for (int c = 0; c < x.c; ++c) {
    for (std::size_t i = 0; i < per; ++i) m[c] += x.v[c * per + i];
    m[c] /= static_cast<double>(per);
  }
  return m;
}

}  // namespace

VpCheck replay_vp_check(const safecross::serving::StreamConfig& sc, std::size_t frames,
                        std::vector<safecross::serving::ReadyWindow>& windows,
                        std::vector<Image>& last_window) {
  safecross::serving::StreamContext ctx(sc);
  safecross::sim::TrafficSimulator sim(safecross::sim::weather_params(sc.weather), sc.sim_seed);
  const safecross::sim::CameraModel camera(sim.intersection().geometry());
  safecross::Rng rng(sc.collector_seed);
  FullVpReference full(camera.image_to_grid(sc.vp.grid_w, sc.vp.grid_h), sc.vp.grid_w,
                       sc.vp.grid_h);
  const bool fullvp = sc.vp.mode == safecross::dataset::PipelineMode::FullVP;

  VpCheck out;
  for (std::size_t f = 0; f < frames; ++f) {
    std::optional<safecross::serving::ReadyWindow> w = ctx.tick();
    sim.step();
    const Image& served = ctx.collector().last_frame();
    if (fullvp) {
      full.step(camera.render(sim, rng), served, out);
    } else {
      const Image ref = fast_topdown_reference(camera, sim, sc.vp, rng);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ++out.cells;
        if (ref.data()[i] != served.data()[i]) ++out.mismatched;
      }
    }
    ++out.frames;
    if (w && w->gate == safecross::runtime::DecisionSource::Model) {
      windows.push_back(std::move(*w));
    }
  }
  last_window.assign(ctx.collector().window().begin(), ctx.collector().window().end());
  return out;
}

double reference_p_danger(safecross::models::SlowFast& model,
                          const std::vector<Image>& window) {
  const std::vector<safecross::nn::Param*> p = model.params();
  const std::vector<safecross::nn::Tensor*> b = model.buffers();
  // params(): slow_stem, slow_stage2, fast_stem, fast_stage2 as (conv w, conv
  // b, bn gamma, bn beta), then lateral1 (w, b), lateral2 (w, b), head (w, b);
  // buffers(): the four blocks' (running mean, running var).
  if (p.size() != 22 || b.size() != 8 || !model.config().use_lateral) {
    throw std::runtime_error("reference forward: unexpected SlowFast parameter layout");
  }
  const int alpha = model.config().alpha;
  const int t = static_cast<int>(window.size());
  const int h = window.at(0).height(), w = window.at(0).width();
  Vol clip(1, t, h, w);
  for (int ti = 0; ti < t; ++ti) {
    std::copy(window[ti].data(), window[ti].data() + window[ti].size(),
              clip.v.begin() + static_cast<std::ptrdiff_t>(std::size_t(ti) * h * w));
  }
  Vol slow_in(1, t / alpha, h, w);
  for (int ti = 0; ti < slow_in.t; ++ti) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) slow_in.at(0, ti, y, x) = clip.at(0, ti * alpha, y, x);
    }
  }
  auto block = [&](const Vol& in, int first, int buf, int st, int ss, int pt, int ps) {
    Vol y = conv3d(in, p[first]->value, p[first + 1]->value, st, ss, pt, ps);
    bn_relu(y, p[first + 2]->value, p[first + 3]->value, *b[buf], *b[buf + 1]);
    return y;
  };
  // Strides and paddings of the SlowFast architecture (models/slowfast.cpp).
  Vol s = block(slow_in, 0, 0, 1, 2, 0, 1);
  Vol f = block(clip, 8, 4, 1, 2, 2, 1);
  s = concat(s, conv3d(f, p[16]->value, p[17]->value, alpha, 1, 0, 0));
  Vol s2 = block(s, 4, 2, 1, 2, 1, 1);
  Vol f2 = block(f, 12, 6, 1, 2, 1, 1);
  s2 = concat(s2, conv3d(f2, p[18]->value, p[19]->value, alpha, 1, 0, 0));

  std::vector<double> feat = channel_means(s2);
  const std::vector<double> pf = channel_means(f2);
  feat.insert(feat.end(), pf.begin(), pf.end());
  const safecross::nn::Tensor& hw = p[20]->value;
  const safecross::nn::Tensor& hb = p[21]->value;
  if (hw.dim(0) != 2 || hw.dim(1) != static_cast<int>(feat.size())) {
    throw std::runtime_error("reference forward: head shape mismatch");
  }
  double logit[2];
  for (int k = 0; k < 2; ++k) {
    logit[k] = hb.data()[k];
    for (std::size_t i = 0; i < feat.size(); ++i) logit[k] += hw.data()[k * feat.size() + i] * feat[i];
  }
  return 1.0 / (1.0 + std::exp(logit[1] - logit[0]));
}

std::string reference_checks(safecross::core::SafeCross& engine,
                             const safecross::serving::StreamServerConfig& cfg,
                             const std::vector<std::vector<safecross::serving::DecisionRecord>>& traces,
                             std::uint64_t sample_seed, Tally& t) {
  // Up to kSampled of a stream's first kCandidates model windows, among
  // those a replay of at most kMaxFrames frames regenerates; the replay
  // covers at least kMinFrames frames even when no stream has any.
  constexpr std::size_t kSampled = 4, kCandidates = 16, kMinFrames = 120, kMaxFrames = 2400;
  using safecross::runtime::DecisionSource;
  safecross::Rng rng(sample_seed);
  auto replayable = [&](const safecross::serving::DecisionRecord& d) {
    return d.source == DecisionSource::Model && d.frame <= kMaxFrames;
  };

  std::vector<std::size_t> with_model;
  for (std::size_t s = 0; s < traces.size(); ++s) {
    if (std::any_of(traces[s].begin(), traces[s].end(), replayable)) with_model.push_back(s);
  }
  const std::size_t s = with_model.empty() ? rng.uniform_int(std::uint64_t{cfg.streams.size()})
                                           : with_model[rng.uniform_int(std::uint64_t{with_model.size()})];
  std::vector<std::size_t> seqs;
  for (std::size_t seq = 0; seq < traces[s].size() && seqs.size() < kCandidates; ++seq) {
    if (replayable(traces[s][seq])) seqs.push_back(seq);
  }
  for (std::size_t i = 0; i < seqs.size() && i < kSampled; ++i) {
    std::swap(seqs[i], seqs[i + rng.uniform_int(std::uint64_t{seqs.size() - i})]);
  }
  if (seqs.size() > kSampled) seqs.resize(kSampled);
  std::size_t frames = kMinFrames;
  for (std::size_t seq : seqs) frames = std::max(frames, traces[s][seq].frame);
  frames = std::min(frames, cfg.frames);

  std::vector<safecross::serving::ReadyWindow> windows;
  std::vector<Image> last_window;
  const VpCheck vp = replay_vp_check(cfg.streams[s], frames, windows, last_window);
  const std::string where = cfg.streams[s].name;
  if (!vp.ok()) {
    t.error(where + ": VP reference disagrees on " + std::to_string(vp.mismatched) + " of " +
            std::to_string(vp.cells) + " grid cells, " + std::to_string(vp.mask_mismatched) +
            " mask pixels, " + std::to_string(vp.opening_mismatched) + " opened pixels");
  }

  double worst = 0.0;
  auto model_for = [&](Weather weather) -> safecross::models::SlowFast& {
    auto* sf = dynamic_cast<safecross::models::SlowFast*>(&engine.model_for(weather));
    if (sf == nullptr) throw std::runtime_error("reference forward: served model is not SlowFast");
    return *sf;
  };
  for (std::size_t seq : seqs) {
    const auto it = std::find_if(windows.begin(), windows.end(),
                                 [seq](const auto& w) { return w.seq == seq; });
    const auto& served = traces[s][seq];
    if (it == windows.end() || it->frame != served.frame) {
      ++t.failed;
      t.error(where + " seq " + std::to_string(seq) + ": replay did not regenerate the window");
      continue;
    }
    const double ref = reference_p_danger(model_for(it->model_weather), it->window);
    const double diff = std::fabs(ref - static_cast<double>(served.prob_danger));
    worst = std::max(worst, diff);
    if (!(diff <= kForwardTolerance)) {
      ++t.failed;
      t.error(where + " seq " + std::to_string(seq) + ": served P(danger) " +
              std::to_string(served.prob_danger) + " vs reference " + std::to_string(ref));
    }
  }
  std::size_t extra = 0;
  if (last_window.size() == static_cast<std::size_t>(cfg.streams[s].vp.frames_per_segment)) {
    const Weather weather = cfg.streams[s].weather;
    const double ref = reference_p_danger(model_for(weather), last_window);
    const double diff =
        std::fabs(ref - static_cast<double>(engine.classify_as(weather, last_window).prob_danger));
    worst = std::max(worst, diff);
    extra = 1;
    if (!(diff <= kForwardTolerance)) {
      t.error(where + ": classify_as P(danger) disagrees with the reference on the replay's "
              "last window");
    }
  }

  char line[320];
  std::snprintf(line, sizeof(line),
                "reference: %s, %zu frames replayed; VP %zu cells (%zu tolerated, %zu off), "
                "%zu mask px (%zu off), opening %zu off; forward %zu served + %zu replayed "
                "windows, max |dP| %.2e (tolerance %.0e)",
                where.c_str(), vp.frames, vp.cells, vp.tolerated, vp.mismatched, vp.mask_pixels,
                vp.mask_mismatched, vp.opening_mismatched, seqs.size(), extra, worst,
                kForwardTolerance);
  return line;
}

}  // namespace e2e
