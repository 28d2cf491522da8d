#include "nn/conv2d.h"

#include <stdexcept>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/im2col.h"

namespace safecross::nn {

Conv2D::Conv2D(Conv2DConfig config)
    : config_(config),
      weight_(Tensor({config.out_channels, config.in_channels, config.kernel, config.kernel})),
      bias_(Tensor({config.out_channels})) {
  if (config.kernel < 1 || config.stride < 1 || config.padding < 0) {
    throw std::invalid_argument("Conv2D: invalid geometry");
  }
}

int Conv2D::out_size(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

std::vector<Param*> Conv2D::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

// Per batch item: col = im2col(x) with rows in weight order, so
// y (c_out x oh*ow) = W (c_out x rows) * col, and in backward
// dW += dy * col^T and dx = col2im(W^T * dy).

Tensor Conv2D::forward(const Tensor& input, bool training) {
  if (input.ndim() != 4 || input.dim(1) != config_.in_channels) {
    throw std::invalid_argument("Conv2D: expected (N, " + std::to_string(config_.in_channels) +
                                ", H, W), got " + input.shape_str());
  }
  cached_input_ = input;
  const int n = input.dim(0), c_in = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int k = config_.kernel, c_out = config_.out_channels;
  const Im2ColGeom2D g{c_in, h,
                       w,    k,
                       config_.stride, config_.padding,
                       out_size(h, k, config_.stride, config_.padding),
                       out_size(w, k, config_.stride, config_.padding)};
  if (g.oh <= 0 || g.ow <= 0) throw std::invalid_argument("Conv2D: output would be empty");
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;

  // A training forward must keep the lowering for backward's weight
  // gradient; inference lowers into reusable thread-local arena scratch
  // so serving holds no per-layer column buffers.
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* col;
  if (training) {
    if (col_.size() < static_cast<std::size_t>(n) * per_item) {
      col_.resize(static_cast<std::size_t>(n) * per_item);
    }
    col = col_.data();
    col_valid_ = true;
  } else {
    col = arena.floats(static_cast<std::size_t>(n) * per_item);
    col_valid_ = false;
  }

  const float* x = input.data();
  // Lower: each job owns one (batch, channel) block of whole rows.
  ThreadPool::global().parallel_for(static_cast<std::size_t>(n) * c_in, [&](std::size_t job) {
    const int bi = static_cast<int>(job) / c_in;
    const int ic = static_cast<int>(job) % c_in;
    im2col_2d(x + static_cast<std::size_t>(bi) * c_in * h * w, g, ic * g.rows_per_channel(),
              (ic + 1) * g.rows_per_channel(), col + bi * per_item);
  });

  Tensor out({n, c_out, g.oh, g.ow});
  float* y = out.data();
  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kNo, Trans::kNo, c_out, static_cast<int>(cols), rows, 1.0f,
          weight_.value.data(), rows, col + bi * per_item, static_cast<int>(cols), 0.0f,
          y + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols));
  }

  if (config_.bias) {
    const float* b = bias_.value.data();
    ThreadPool::global().parallel_for(static_cast<std::size_t>(n) * c_out, [&](std::size_t job) {
      const float bv = b[job % c_out];
      float* row = y + job * cols;
      for (std::size_t m = 0; m < cols; ++m) row[m] += bv;
    });
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int n = input.dim(0), c_in = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int k = config_.kernel, c_out = config_.out_channels;
  const Im2ColGeom2D g{c_in, h,
                       w,    k,
                       config_.stride, config_.padding,
                       grad_output.dim(2), grad_output.dim(3)};
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  if (!col_valid_) {
    throw std::logic_error(
        "Conv2D: backward requires a preceding forward with training=true "
        "(inference forwards do not retain the im2col lowering)");
  }
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* col_grad = arena.floats(per_item);

  const float* go = grad_output.data();
  float* gw = weight_.grad.data();

  if (config_.bias) {
    float* gb = bias_.grad.data();
    ThreadPool::global().parallel_for(static_cast<std::size_t>(c_out), [&](std::size_t oc) {
      double acc = 0.0;
      for (int bi = 0; bi < n; ++bi) {
        const float* row = go + (static_cast<std::size_t>(bi) * c_out + oc) * cols;
        for (std::size_t m = 0; m < cols; ++m) acc += row[m];
      }
      gb[oc] += static_cast<float>(acc);
    });
  }

  // dW += dy_b * col_b^T, accumulated over the batch (col_ still holds
  // this layer's lowering from the matching forward call).
  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kNo, Trans::kTrans, c_out, rows, static_cast<int>(cols), 1.0f,
          go + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols),
          col_.data() + bi * per_item, static_cast<int>(cols), 1.0f, gw, rows);
  }

  Tensor grad_input({n, c_in, h, w}, 0.0f);
  float* gi = grad_input.data();
  for (int bi = 0; bi < n; ++bi) {
    // dcol = W^T * dy_b, then scatter back to image layout.
    sgemm(Trans::kTrans, Trans::kNo, rows, static_cast<int>(cols), c_out, 1.0f,
          weight_.value.data(), rows, go + static_cast<std::size_t>(bi) * c_out * cols,
          static_cast<int>(cols), 0.0f, col_grad, static_cast<int>(cols));
    float* gi_b = gi + static_cast<std::size_t>(bi) * c_in * h * w;
    ThreadPool::global().parallel_for(static_cast<std::size_t>(c_in), [&](std::size_t ic) {
      col2im_2d(col_grad, g, static_cast<int>(ic) * g.rows_per_channel(),
                (static_cast<int>(ic) + 1) * g.rows_per_channel(), gi_b);
    });
  }
  return grad_input;
}

}  // namespace safecross::nn
