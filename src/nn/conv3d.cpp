#include "nn/conv3d.h"

#include <stdexcept>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/im2col.h"

namespace safecross::nn {

Conv3D::Conv3D(Conv3DConfig config)
    : config_(config),
      weight_(Tensor({config.out_channels, config.in_channels, config.kernel_t, config.kernel_s,
                      config.kernel_s})),
      bias_(Tensor({config.out_channels})) {
  if (config.kernel_t < 1 || config.kernel_s < 1 || config.stride_t < 1 || config.stride_s < 1 ||
      config.pad_t < 0 || config.pad_s < 0) {
    throw std::invalid_argument("Conv3D: invalid geometry");
  }
}

int Conv3D::out_size(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

std::vector<Param*> Conv3D::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

// im2col + GEMM, the decomposition of conv2d.cpp with (T, H, W)
// receptive fields.

Tensor Conv3D::forward(const Tensor& input, bool training) {
  if (input.ndim() != 5 || input.dim(1) != config_.in_channels) {
    throw std::invalid_argument("Conv3D: expected (N, " + std::to_string(config_.in_channels) +
                                ", T, H, W), got " + input.shape_str());
  }
  cached_input_ = input;
  const int n = input.dim(0), c_in = input.dim(1), t = input.dim(2), h = input.dim(3),
            w = input.dim(4);
  const int c_out = config_.out_channels;
  const Im2ColGeom3D g{c_in,
                       t,
                       h,
                       w,
                       config_.kernel_t,
                       config_.kernel_s,
                       config_.stride_t,
                       config_.stride_s,
                       config_.pad_t,
                       config_.pad_s,
                       out_size(t, config_.kernel_t, config_.stride_t, config_.pad_t),
                       out_size(h, config_.kernel_s, config_.stride_s, config_.pad_s),
                       out_size(w, config_.kernel_s, config_.stride_s, config_.pad_s)};
  if (g.ot <= 0 || g.oh <= 0 || g.ow <= 0) {
    throw std::invalid_argument("Conv3D: output would be empty");
  }
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;

  // Training keeps the lowering for backward's weight gradient; inference
  // lowers into reusable thread-local arena scratch (see conv2d.cpp).
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
  const std::size_t in_chan = static_cast<std::size_t>(t) * h * w;
  ThreadPool::global().parallel_for(static_cast<std::size_t>(n) * c_in, [&](std::size_t job) {
    const int bi = static_cast<int>(job) / c_in;
    const int ic = static_cast<int>(job) % c_in;
    im2col_3d(x + static_cast<std::size_t>(bi) * c_in * in_chan, g, ic * g.rows_per_channel(),
              (ic + 1) * g.rows_per_channel(), col + bi * per_item);
  });

  Tensor out({n, c_out, g.ot, g.oh, g.ow});
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

Tensor Conv3D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int n = input.dim(0), c_in = input.dim(1), t = input.dim(2), h = input.dim(3),
            w = input.dim(4);
  const int c_out = config_.out_channels;
  const Im2ColGeom3D g{c_in,
                       t,
                       h,
                       w,
                       config_.kernel_t,
                       config_.kernel_s,
                       config_.stride_t,
                       config_.stride_s,
                       config_.pad_t,
                       config_.pad_s,
                       grad_output.dim(2),
                       grad_output.dim(3),
                       grad_output.dim(4)};
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  if (!col_valid_) {
    throw std::logic_error(
        "Conv3D: backward requires a preceding forward with training=true "
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

  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kNo, Trans::kTrans, c_out, rows, static_cast<int>(cols), 1.0f,
          go + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols),
          col_.data() + bi * per_item, static_cast<int>(cols), 1.0f, gw, rows);
  }

  Tensor grad_input({n, c_in, t, h, w}, 0.0f);
  float* gi = grad_input.data();
  const std::size_t in_chan = static_cast<std::size_t>(t) * h * w;
  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kTrans, Trans::kNo, rows, static_cast<int>(cols), c_out, 1.0f,
          weight_.value.data(), rows, go + static_cast<std::size_t>(bi) * c_out * cols,
          static_cast<int>(cols), 0.0f, col_grad, static_cast<int>(cols));
    float* gi_b = gi + static_cast<std::size_t>(bi) * c_in * in_chan;
    ThreadPool::global().parallel_for(static_cast<std::size_t>(c_in), [&](std::size_t ic) {
      col2im_3d(col_grad, g, static_cast<int>(ic) * g.rows_per_channel(),
                (static_cast<int>(ic) + 1) * g.rows_per_channel(), gi_b);
    });
  }
  return grad_input;
}

}  // namespace safecross::nn
