// Per-layer, per-precision latency measurement.
//
// Shared by bench_backend (which emits the checksummed latency-table
// artifact) and bench_runtime (which measures inline when no table is
// supplied to --budget-ms). The measurement mirrors what each execution
// backend actually runs per layer GEMM:
//
//   fp32  the blocked fp32 kernel on the layer's [m, k] x [n, k] shape
//   int8  quantize the fp32 input + gemm_s8s8_s32 + requant epilogue
//   int4  quantize + gemm_s8s4_s32 on packed codes + requant epilogue
//
// The integer timings deliberately include the quantize/requant seam work:
// that is the cost the serving path pays at every precision boundary, and
// omitting it would overstate sub-byte speedups on small layers (the
// arithmetic-intensity caveat the latency budget exists to capture).
// Weights are synthetic random codes — latency depends on shape, not
// values — and the layer shapes come from one probe forward through the
// real model, so conv layers are timed at their im2col GEMM size.
//
// A layer the served plan keeps in fp32 whatever its bits (its input is not
// an 8-bit fake-quant output, or it has no integer codes) is charged its
// fp32 time in the int8 and int4 columns too, so a latency-budgeted solve
// never trades accuracy for a speedup the server does not deliver.
#pragma once

#include <cstdint>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/data/synthcv.h"
#include "clado/models/model.h"
#include "clado/nn/layers.h"
#include "clado/quant/int4.h"
#include "clado/quant/qat.h"
#include "clado/serve/engine.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"

namespace clado::bench {

/// GEMM dimensions of one quantizable layer at batch size 1: m input rows
/// (im2col patches for convs), n output channels, k reduction length.
struct LayerGemmShape {
  std::string name;
  std::int64_t m = 0, n = 0, k = 0;
};

/// Derives every quant layer's GEMM shape from one probe forward with a
/// single random sample (the layers' last_input stashes carry the spatial
/// dims convs actually saw). Throws std::runtime_error on a quant layer
/// type the backend does not execute.
inline std::vector<LayerGemmShape> probe_layer_shapes(clado::models::Model& model) {
  using clado::nn::Conv2d;
  using clado::nn::Linear;
  clado::tensor::Rng rng(4242);
  const auto probe = clado::nn::Tensor::randn(
      {1, model.channels, model.image_size, model.image_size}, rng);
  model.net->forward(probe);

  std::vector<LayerGemmShape> shapes;
  shapes.reserve(model.quant_layers.size());
  for (const auto& ref : model.quant_layers) {
    LayerGemmShape s;
    s.name = ref.name;
    if (auto* conv = dynamic_cast<Conv2d*>(ref.layer)) {
      const auto& in = conv->last_input();
      const std::int64_t oh =
          (in.shape()[2] + 2 * conv->padding() - conv->kernel()) / conv->stride() + 1;
      const std::int64_t ow =
          (in.shape()[3] + 2 * conv->padding() - conv->kernel()) / conv->stride() + 1;
      s.m = oh * ow;
      s.n = conv->out_channels();
    } else if (auto* linear = dynamic_cast<Linear*>(ref.layer)) {
      s.m = linear->last_input2d().shape()[0];
      s.n = linear->out_features();
    } else {
      throw std::runtime_error("probe_layer_shapes: unsupported quant layer " + ref.name);
    }
    s.k = ref.layer->weight_param().value.numel() / s.n;
    shapes.push_back(std::move(s));
  }
  return shapes;
}

/// The precision each quant layer of `model` executes at when served: the
/// prepared layers of a uniform-int8 integer Engine over a clone calibrated
/// on one random batch. Which layers run integer depends on the graph and
/// the weight scheme, not on the bits, so kFp32 here means fp32 at int4 too.
inline std::vector<clado::quant::Precision> served_precisions(
    const clado::models::Model& model) {
  clado::models::Model clone = model.clone();
  clado::tensor::Rng rng(1618);
  clado::data::Batch calib;
  calib.images = clado::nn::Tensor::randn(
      {4, clone.channels, clone.image_size, clone.image_size}, rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % clone.num_classes);
  clone.calibrate_activations(calib);
  clado::serve::EngineSpec spec;
  spec.bits.assign(clone.quant_layers.size(), 8);
  spec.max_batch = 1;
  spec.backend = clado::serve::BackendMode::kOn;
  const clado::serve::Engine engine(std::move(clone), std::move(spec));
  std::vector<clado::quant::Precision> out;
  for (const auto& prep : engine.prepared_layers()) out.push_back(prep.precision);
  return out;
}

/// Times `fn` adaptively: at least 3 runs and `min_seconds` of wall clock,
/// returning seconds per run (the bench_gemm_kernels policy).
template <typename Fn>
inline double time_per_run_adaptive(Fn&& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  constexpr int kMinReps = 3;
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < kMinReps || elapsed < min_seconds) {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return elapsed / reps;
}

/// Measures ms[layer][precision] for every quant layer of `model` at the
/// process-wide dispatched kernel level (this is a deployment measurement,
/// not a scalar-reference race), charging fp32 time in every column of a
/// layer served_precisions keeps in fp32. `min_seconds` bounds the
/// per-timing wall clock; bench_backend uses a longer window than the
/// inline fallback.
inline clado::core::LatencyTable measure_latency_table(clado::models::Model& model,
                                                       double min_seconds = 0.02) {
  namespace kernels = clado::tensor::kernels;
  const kernels::Level level = kernels::active_level();
  clado::tensor::Rng rng(2718);

  const std::vector<clado::quant::Precision> served = served_precisions(model);
  clado::core::LatencyTable table;
  for (const LayerGemmShape& s : probe_layer_shapes(model)) {
    const auto mk = static_cast<std::size_t>(s.m * s.k);
    const auto nk = static_cast<std::size_t>(s.n * s.k);
    const auto mn = static_cast<std::size_t>(s.m * s.n);

    std::vector<float> in_f(mk);
    std::vector<float> w_f(nk);
    for (auto& v : in_f) v = static_cast<float>(rng.normal());
    for (auto& v : w_f) v = static_cast<float>(rng.normal());
    std::vector<std::int8_t> w_s8(nk);
    std::vector<std::int8_t> codes4(nk);
    for (auto& v : w_s8) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
    for (auto& v : codes4) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(16)) - 8);
    const auto w_s4 = clado::quant::pack_s4_rows(codes4.data(), s.n, s.k);
    std::vector<float> bias(static_cast<std::size_t>(s.n), 0.125F);

    std::vector<float> out_f(mn);
    std::vector<std::int8_t> in_q(mk);
    std::vector<std::int32_t> acc(mn);

    const double t_fp32 = time_per_run_adaptive(
        [&] {
          std::fill(out_f.begin(), out_f.end(), 0.0F);
          kernels::gemm_f32_row_range(level, false, true, 0, s.m, s.n, s.k, 1.0F, in_f.data(),
                                      w_f.data(), out_f.data(), s.k, s.k);
        },
        min_seconds);
    if (served[table.ms.size()] == clado::quant::Precision::kFp32) {
      table.ms.push_back({t_fp32 * 1e3, t_fp32 * 1e3, t_fp32 * 1e3});
      continue;
    }
    const double t_int8 = time_per_run_adaptive(
        [&] {
          kernels::quantize_f32_s8(level, s.m * s.k, in_f.data(), 16.0F, 3, in_q.data());
          kernels::gemm_s8s8_s32(level, s.m, s.n, s.k, in_q.data(), 3, w_s8.data(), 0,
                                 acc.data());
          kernels::requant_s32_f32(level, s.m, s.n, acc.data(), 0.01F, bias.data(),
                                   out_f.data());
        },
        min_seconds);
    const double t_int4 = time_per_run_adaptive(
        [&] {
          kernels::quantize_f32_s8(level, s.m * s.k, in_f.data(), 16.0F, 3, in_q.data());
          kernels::gemm_s8s4_s32(level, s.m, s.n, s.k, in_q.data(), 3, w_s4.data(), 0,
                                 acc.data());
          kernels::requant_s32_f32(level, s.m, s.n, acc.data(), 0.01F, bias.data(),
                                   out_f.data());
        },
        min_seconds);
    // Column order is the Precision enum: fp32, int8, int4.
    table.ms.push_back({t_fp32 * 1e3, t_int8 * 1e3, t_int4 * 1e3});
  }
  return table;
}

}  // namespace clado::bench
