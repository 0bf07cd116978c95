// Standalone layer probes of traced runs, and the derivation of every
// per-layer metric from the recorded spans.
#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "clado/nn/layers.h"
#include "clado/quant/int4.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"

namespace cladobench {
namespace {

namespace kernels = clado::tensor::kernels;

/// GEMM dimensions of one quant layer at batch 1: m rows (im2col patches
/// for convs), n output channels, k reduction length.
struct GemmShape {
  std::int64_t m = 0, n = 0, k = 0;
};

/// One probe forward with a single random sample; each layer's input stash
/// then carries the spatial size it saw.
std::vector<GemmShape> layer_shapes(const TrainedModel& tm) {
  clado::models::Model model = tm.model.clone();
  clado::tensor::Rng rng(4242);
  model.net->forward(
      clado::tensor::Tensor::randn({1, model.channels, model.image_size, model.image_size}, rng));
  std::vector<GemmShape> shapes;
  for (const auto& ref : model.quant_layers) {
    GemmShape s;
    if (auto* conv = dynamic_cast<clado::nn::Conv2d*>(ref.layer)) {
      const auto& in = conv->last_input();
      const auto out = [&](std::int64_t size) {
        return (size + 2 * conv->padding() - conv->kernel()) / conv->stride() + 1;
      };
      s.m = out(in.shape()[2]) * out(in.shape()[3]);
      s.n = conv->out_channels();
    } else if (auto* linear = dynamic_cast<clado::nn::Linear*>(ref.layer)) {
      s.m = linear->last_input2d().shape()[0];
      s.n = linear->out_features();
    } else {
      throw std::runtime_error("layer_shapes: unsupported quant layer " + ref.name);
    }
    s.k = ref.layer->weight_param().value.numel() / s.n;
    shapes.push_back(s);
  }
  return shapes;
}

/// Operands of one layer at one batch size, with random contents (time
/// depends on shape only).
struct GemmBuffers {
  GemmShape s;
  std::vector<float> in_f, w_f, out_f, bias;
  std::vector<std::int8_t> in_q, w_s8;
  std::vector<std::uint8_t> w_s4;
  std::vector<std::int32_t> acc;

  GemmBuffers(GemmShape shape, clado::tensor::Rng& rng) : s(shape) {
    const auto mk = static_cast<std::size_t>(s.m * s.k);
    const auto nk = static_cast<std::size_t>(s.n * s.k);
    const auto mn = static_cast<std::size_t>(s.m * s.n);
    in_f.resize(mk);
    w_f.resize(nk);
    for (auto& v : in_f) v = static_cast<float>(rng.normal());
    for (auto& v : w_f) v = static_cast<float>(rng.normal());
    w_s8.resize(nk);
    std::vector<std::int8_t> codes4(nk);
    for (auto& v : w_s8) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
    for (auto& v : codes4) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(16)) - 8);
    w_s4 = clado::quant::pack_s4_rows(codes4.data(), s.n, s.k);
    bias.assign(static_cast<std::size_t>(s.n), 0.125F);
    out_f.resize(mn);
    in_q.resize(mk);
    acc.resize(mn);
  }

  // Each precision runs what its serving backend runs per layer: fp32 is
  // the blocked GEMM; int8/int4 include the quantize and requant seams.
  void f32(kernels::Level level) {
    std::fill(out_f.begin(), out_f.end(), 0.0F);
    kernels::gemm_f32_row_range(level, false, true, 0, s.m, s.n, s.k, 1.0F, in_f.data(),
                                w_f.data(), out_f.data(), s.k, s.k);
  }
  void s8(kernels::Level level) {
    kernels::quantize_f32_s8(level, s.m * s.k, in_f.data(), 16.0F, 3, in_q.data());
    kernels::gemm_s8s8_s32(level, s.m, s.n, s.k, in_q.data(), 3, w_s8.data(), 0, acc.data());
    kernels::requant_s32_f32(level, s.m, s.n, acc.data(), 0.01F, bias.data(), out_f.data());
  }
  void s4(kernels::Level level) {
    kernels::quantize_f32_s8(level, s.m * s.k, in_f.data(), 16.0F, 3, in_q.data());
    kernels::gemm_s8s4_s32(level, s.m, s.n, s.k, in_q.data(), 3, w_s4.data(), 0, acc.data());
    kernels::requant_s32_f32(level, s.m, s.n, acc.data(), 0.01F, bias.data(), out_f.data());
  }

  /// Bytes of the operands each call reads or writes, counted once per call
  /// (computed from the shapes, not measured).
  double bytes(const std::string& precision) const {
    const double m = static_cast<double>(s.m), n = static_cast<double>(s.n),
                 k = static_cast<double>(s.k);
    if (precision == "f32") return 4 * m * k + 4 * n * k + 4 * m * n;
    const double weights = precision == "s8" ? n * k : n * static_cast<double>((s.k + 1) / 2);
    return (4 * m * k + m * k) + (m * k + weights + 4 * m * n) + (4 * m * n + 4 * n + 4 * m * n);
  }
};

/// Repeats `pass` (one call per layer) for at least `min_passes` and
/// `min_seconds`, one span per pass.
template <typename Fn>
void timed_passes(const std::string& name, Fn&& pass, int min_passes, double min_seconds) {
  const auto t0 = Clock::now();
  for (int i = 0; i < min_passes || seconds_since(t0) < min_seconds; ++i) {
    const trace::Span span(name);
    pass();
  }
}

void set_median_ms(Report& l, const std::string& metric, const std::string& span) {
  const auto d = trace::durations_ms(span);
  if (!d.empty()) l.set(metric, median(d), "ms");
}

}  // namespace

void probe_kernels(Run& run, TrainedModel& tm) {
  const kernels::Level level = kernels::active_level();
  const std::vector<GemmShape> shapes = layer_shapes(tm);
  clado::tensor::Rng rng(2718);
  for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{8}}) {
    std::vector<GemmBuffers> layers;
    for (GemmShape s : shapes) {
      s.m *= batch;
      layers.emplace_back(s, rng);
    }
    const std::string b = ".b" + std::to_string(batch);
    for (const std::string p : {"f32", "s8", "s4"}) {
      const auto pass = [&] {
        for (auto& g : layers) {
          if (p == "f32") g.f32(level);
          else if (p == "s8") g.s8(level);
          else g.s4(level);
        }
      };
      for (int i = 0; i < 3; ++i) pass();  // warm caches
      timed_passes("kernels/" + p + b, pass, 20, 0.15);
      const double ms = median(trace::durations_ms("kernels/" + p + b));
      run.layer.set("kernels." + p + "_ms" + b, ms, "ms");
      if (batch == 8) {
        double ops = 0.0;
        double bytes = 0.0;
        for (const auto& g : layers) {
          ops += 2.0 * static_cast<double>(g.s.m * g.s.n * g.s.k);
          bytes += g.bytes(p);
        }
        run.layer.set("kernels." + p + "_gops" + b, ops / (ms * 1e-3) * 1e-9, "GOP/s");
        run.layer.set("kernels." + p + "_mb" + b, bytes * 1e-6, "MB_computed");
      }
    }
  }
}

void probe_nn(TrainedModel& tm) {
  const clado::data::Batch batch = sensitivity_batch(tm);
  tm.model.loss(batch);  // warm
  timed_passes("nn/loss.b64", [&] { tm.model.loss(batch); }, 20, 0.2);
}

void derive_layer_metrics(Run& run) {
  Report& l = run.layer;
  set_median_ms(l, "nn.forward_ms.b64", "nn/loss.b64");
  set_median_ms(l, "linalg.psd_ms", "linalg/psd");
  set_median_ms(l, "quant.ptq_apply_ms", "quant/apply_ptq");
  set_median_ms(l, "models.eval_ms", "models/accuracy_on");
  set_median_ms(l, "serve.plan_ms.b1", "serve/plan.b1");
  set_median_ms(l, "serve.plan_ms.b8", "serve/plan.b8");

  const auto seconds = [&](const std::string& metric, const std::string& span) {
    const auto d = trace::durations_ms(span);
    if (!d.empty()) l.set(metric, median(d) * 1e-3, "s");
  };
  seconds("core.init_s", "core/pipeline_ctor");
  seconds("core.singles_s", "core/singles");
  seconds("core.sweep_s", "core/full_matrix");
  seconds("serve.engine_load_s", "serve/engine_load");
  if (l.has("core.forwards")) {
    l.set("core.ms_per_forward",
          (l.get("core.init_s") + l.get("core.singles_s") + l.get("core.sweep_s")) * 1e3 /
              l.get("core.forwards"),
          "ms");
  }

  const auto solve = trace::durations_ms("solver/assign");
  l.set("solver.solve_ms.p50", median(solve), "ms");
  l.set("solver.solve_ms.max", max_of(solve), "ms");
  if (l.has("solver.nodes")) {
    l.set("solver.prune_ratio",
          l.get("solver.nodes") > 0 ? l.get("solver.pruned") / l.get("solver.nodes") : 0.0,
          "ratio");
  }

  const auto tails = [&](const std::string& metric, const std::string& span) {
    const auto d = trace::durations_ms(span);
    l.set(metric + ".p50", median(d), "ms");
    l.set(metric + ".p99", percentile(d, 99), "ms");
  };
  tails("serve.queue_ms", "open/queue");
  tails("serve.exec_ms", "open/exec");
  const auto late = trace::durations_ms("gen/late");
  l.set("gen.late_ms.p99", percentile(late, 99), "ms");
  l.set("gen.late_ms.max", max_of(late), "ms");
}

}  // namespace cladobench
