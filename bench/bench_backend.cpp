// Execution-backend latency: the sub-byte GEMM race and the per-layer
// per-precision latency table that closes the loop from "bits assigned" to
// "milliseconds spent".
//
// Part 1 races the packed-int4 widening kernel (gemm_s8s4_s32) scalar vs
// the dispatched level, exactly like bench_gemm_kernels does for f32/s8:
// the speedup ratio is gated by gauges_min in the baseline, and the levels
// are re-verified bit-exact on every timed shape (mismatch counters
// baselined at zero).
//
// Part 2 measures every quantizable layer of a model at each execution
// precision (fp32 / int8 / int4, integer paths including the quantize and
// requant seam work the serving backend pays; a layer the served plan keeps
// in fp32 is charged its fp32 time in every column) and writes the result
// as the checksummed latency-table artifact consumed by --budget-ms
// latency-aware solves (clado_cli assign, bench_runtime). Shapes come from a probe
// forward through the real model; weights are synthetic codes — latency
// depends on shape, not values — so no zoo training is needed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_common.h"
#include "bench_latency.h"
#include "clado/core/algorithms.h"
#include "clado/models/builders.h"
#include "clado/obs/obs.h"
#include "clado/quant/int4.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"

namespace {

using clado::tensor::Rng;
namespace kernels = clado::tensor::kernels;
using kernels::Level;

struct Shape {
  std::int64_t m, n, k;
};

double bench_s4(Level best) {
  // One square shape for the compute-bound regime and one ragged odd-k
  // shape so the pad-nibble tail and edge tiles stay in the timing mix.
  const std::vector<Shape> shapes = {{256, 256, 256}, {192, 176, 201}};
  Rng rng(98765);
  double scalar_total = 0.0;
  double best_total = 0.0;
  double ops_total = 0.0;
  for (const Shape& s : shapes) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> codes(static_cast<std::size_t>(s.n * s.k));
    for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
    for (auto& v : codes) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(16)) - 8);
    const auto b_packed = clado::quant::pack_s4_rows(codes.data(), s.n, s.k);
    std::vector<std::int32_t> c_scalar(static_cast<std::size_t>(s.m * s.n));
    std::vector<std::int32_t> c_best(c_scalar);

    auto run = [&](Level level, std::vector<std::int32_t>& c) {
      kernels::gemm_s8s4_s32(level, s.m, s.n, s.k, a.data(), -7, b_packed.data(), 0, c.data());
    };
    const double t_scalar =
        clado::bench::time_per_run_adaptive([&] { run(Level::kScalar, c_scalar); }, 0.15);
    const double t_best = clado::bench::time_per_run_adaptive([&] { run(best, c_best); }, 0.15);

    run(Level::kScalar, c_scalar);
    run(best, c_best);
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < c_scalar.size(); ++i) {
      if (c_scalar[i] != c_best[i]) ++mismatches;  // s4 contract: BIT-exact
    }
    clado::obs::counter("kernels.bench.s4_cases").add();
    clado::obs::counter("kernels.bench.s4_mismatches").add(mismatches);

    const double ops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                       static_cast<double>(s.k);
    scalar_total += t_scalar;
    best_total += t_best;
    ops_total += ops;
    std::printf("  s4  %4lldx%4lldx%4lld  scalar %7.2f GOP/s     %s %7.2f GOP/s     %5.2fx\n",
                static_cast<long long>(s.m), static_cast<long long>(s.n),
                static_cast<long long>(s.k), ops / t_scalar * 1e-9,
                kernels::level_name(best), ops / t_best * 1e-9, t_scalar / t_best);
  }
  const double speedup = scalar_total / best_total;
  std::printf("  s4 aggregate: scalar %.2f GOP/s, %s %.2f GOP/s, speedup %.2fx\n",
              ops_total / scalar_total * 1e-9, kernels::level_name(best),
              ops_total / best_total * 1e-9, speedup);
  return speedup;
}

void bench_model_latency(const std::string& name) {
  Rng rng(202);
  auto model = clado::models::build_by_name(name, rng);
  const auto shapes = clado::bench::probe_layer_shapes(model);
  const auto table = clado::bench::measure_latency_table(model, /*min_seconds=*/0.05);

  std::printf("\n=== %s: per-layer latency by execution precision ===\n", name.c_str());
  std::printf("  %-24s %5s %5s %5s  %9s  %9s  %9s  %6s  %6s\n", "layer", "m", "n", "k",
              "fp32 ms", "int8 ms", "int4 ms", "i8/f32", "i4/i8");
  double sums[clado::quant::kNumPrecisions] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto& s = shapes[i];
    const double f32 = table.at(i, clado::quant::Precision::kFp32);
    const double i8 = table.at(i, clado::quant::Precision::kInt8);
    const double i4 = table.at(i, clado::quant::Precision::kInt4);
    sums[0] += f32;
    sums[1] += i8;
    sums[2] += i4;
    std::printf("  %-24s %5lld %5lld %5lld  %9.4f  %9.4f  %9.4f  %5.2fx  %5.2fx\n",
                s.name.c_str(), static_cast<long long>(s.m), static_cast<long long>(s.n),
                static_cast<long long>(s.k), f32, i8, i4, f32 / i8, i8 / i4);
    clado::obs::counter("backend.bench.latency_layers").add();
  }
  std::printf("  %-24s %17s  %9.4f  %9.4f  %9.4f\n", "total (batch=1)", "", sums[0], sums[1],
              sums[2]);

  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/latency_" + name + ".bin";
  clado::core::save_latency_table(table, path);
  std::printf("  latency table written to %s (%zu layers; pass it to\n"
              "  `clado_cli assign --latency-table=%s --budget-ms=...`)\n",
              path.c_str(), table.layers(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Level best = kernels::active_level();
  std::printf("=== Backend: packed-s4 kernel race and per-layer latency tables ===\n");
  std::printf("(cpu_supports_avx2=%d, active level=%s; set CLADO_KERNEL to override)\n\n",
              kernels::cpu_supports_avx2() ? 1 : 0, kernels::level_name(best));

  if (best == Level::kScalar) {
    // Nothing to race against: run scalar once for the correctness
    // counters and still emit latency tables (they describe this host's
    // deployment level, whatever it is), but skip the speedup gauge — the
    // baseline's gauges_min is only enforced where the vector level runs.
    std::printf("active level is scalar; speedup gauges skipped\n\n");
    bench_s4(Level::kScalar);
  } else {
    const double s4_speedup = bench_s4(best);
    clado::obs::gauge("kernels.bench.s4_speedup").set(s4_speedup);
  }

  const auto names = clado::bench::models_from_args(argc, argv, {"resnet_a"});
  for (const auto& name : names) bench_model_latency(name);
  return 0;
}
