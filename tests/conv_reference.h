#pragma once
// Plain convolution reference for the layer parity tests.
//
// One single-threaded loop nest in double precision over (N, C, T, H, W)
// inputs and (C_out, C_in, KT, KS, KS) weights; a 2-D convolution is the
// T = 1, KT = 1 case, whose memory layout is identical. Each output tap
// contributes to the forward output and, for a given upstream gradient,
// to grad_input / grad_weight / grad_bias.

#include <cstddef>
#include <vector>

namespace safecross::testing {

struct ConvGeom {
  int n, c_in, t, h, w;  // input
  int c_out, kt, ks;     // output channels, temporal / spatial kernel
  int st, ss, pt, ps;    // temporal / spatial stride and padding

  int ot() const { return (t + 2 * pt - kt) / st + 1; }
  int oh() const { return (h + 2 * ps - ks) / ss + 1; }
  int ow() const { return (w + 2 * ps - ks) / ss + 1; }
};

struct ConvReference {
  std::vector<double> y, grad_input, grad_weight, grad_bias;
};

/// `bias` may be null (no bias term); `gy` has the output's shape.
inline ConvReference conv_reference(const ConvGeom& g, const float* x, const float* weight,
                                    const float* bias, const float* gy) {
  const int ot = g.ot(), oh = g.oh(), ow = g.ow();
  ConvReference r;
  r.y.assign(static_cast<std::size_t>(g.n) * g.c_out * ot * oh * ow, 0.0);
  r.grad_input.assign(static_cast<std::size_t>(g.n) * g.c_in * g.t * g.h * g.w, 0.0);
  r.grad_weight.assign(static_cast<std::size_t>(g.c_out) * g.c_in * g.kt * g.ks * g.ks, 0.0);
  r.grad_bias.assign(static_cast<std::size_t>(g.c_out), 0.0);

  std::size_t o = 0;  // flat output index, row-major over (b, oc, oz, oy, ox)
  for (int b = 0; b < g.n; ++b) {
    for (int oc = 0; oc < g.c_out; ++oc) {
      for (int oz = 0; oz < ot; ++oz) {
        for (int oy = 0; oy < oh; ++oy) {
          for (int ox = 0; ox < ow; ++ox, ++o) {
            const double go = gy[o];
            double acc = bias != nullptr ? bias[oc] : 0.0;
            if (bias != nullptr) r.grad_bias[oc] += go;
            for (int ic = 0; ic < g.c_in; ++ic) {
              for (int kz = 0; kz < g.kt; ++kz) {
                const int iz = oz * g.st - g.pt + kz;
                if (iz < 0 || iz >= g.t) continue;
                for (int ky = 0; ky < g.ks; ++ky) {
                  const int iy = oy * g.ss - g.ps + ky;
                  if (iy < 0 || iy >= g.h) continue;
                  for (int kx = 0; kx < g.ks; ++kx) {
                    const int ix = ox * g.ss - g.ps + kx;
                    if (ix < 0 || ix >= g.w) continue;
                    const std::size_t xi =
                        ((((static_cast<std::size_t>(b) * g.c_in + ic) * g.t + iz) * g.h + iy) *
                             g.w +
                         ix);
                    const std::size_t wi =
                        (((static_cast<std::size_t>(oc) * g.c_in + ic) * g.kt + kz) * g.ks + ky) *
                            g.ks +
                        kx;
                    acc += static_cast<double>(x[xi]) * weight[wi];
                    r.grad_input[xi] += go * weight[wi];
                    r.grad_weight[wi] += go * x[xi];
                  }
                }
              }
            }
            r.y[o] = acc;
          }
        }
      }
    }
  }
  return r;
}

}  // namespace safecross::testing
