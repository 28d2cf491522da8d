#pragma once
// 2-D convolution over (N, C, H, W) tensors, with stride and zero padding.
//
// Used by the TSN/ResNet-lite/Inception-lite 2-D backbones and the
// YOLO-lite detector. Each image is lowered to an im2col matrix and
// multiplied against the flattened weight by the packed GEMM (nn/gemm.h).

#include <vector>

#include "nn/layer.h"

namespace safecross::nn {

struct Conv2DConfig {
  int in_channels = 1;
  int out_channels = 1;
  int kernel = 3;
  int stride = 1;
  int padding = 1;
  bool bias = true;
};

class Conv2D final : public Layer {
 public:
  explicit Conv2D(Conv2DConfig config);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2D"; }

  const Conv2DConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

  /// Output spatial size for a given input size.
  static int out_size(int in, int kernel, int stride, int padding);

 private:
  Conv2DConfig config_;
  Param weight_;  // (out_c, in_c, k, k)
  Param bias_;    // (out_c)
  Tensor cached_input_;
  // A training forward keeps the lowered batch (n x rows x cols) here
  // because backward reuses it for the weight gradient. Inference
  // forwards lower into the calling thread's ScratchArena instead —
  // nothing stays resident per layer — so col_valid_ gates backward
  // against a missing lowering. Backward's own per-item gradient matrix
  // is always arena scratch.
  std::vector<float> col_;
  bool col_valid_ = false;
};

}  // namespace safecross::nn
