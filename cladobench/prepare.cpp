// One-time preparation, run by the launcher before the first timed run of
// a build: trains resnet_a into the benchmark's artifacts dir (the only
// place training ever happens) and caches every reference the workloads
// check against.
#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace cladobench {

void prepare(const Run& run) {
  std::filesystem::create_directories(run.artifacts_dir());
  std::filesystem::create_directories(run.reference_dir());
  const std::string ref = run.reference_dir();

  clado::models::ZooConfig cfg;
  cfg.artifacts_dir = run.artifacts_dir();
  std::printf("prepare: loading %s (trains on first use into %s)\n", kModel,
              cfg.artifacts_dir.c_str());
  std::fflush(stdout);
  clado::models::get_or_train(kModel, cfg);
  TrainedModel tm = load_calibrated(run);

  // Reference Ĝ, as raw floats (the pipeline's bit-for-bit check) and as a
  // sensitivity file (the solve workload's warm cache).
  clado::core::PipelineOptions options;
  options.sweep_threads = sweep_threads();
  {
    clado::core::MpqPipeline pipe(tm.model, sensitivity_batch(tm), options);
    const clado::tensor::Tensor& g = pipe.clado_matrix_raw();
    write_floats(ref + "/g_raw.f32", std::vector<float>(g.data(), g.data() + g.numel()));
    pipe.save_sensitivities(ref + "/g_raw.sens");
    std::printf("prepare: reference sensitivity matrix %lldx%lld\n",
                static_cast<long long>(g.size(0)), static_cast<long long>(g.size(1)));
  }

  // Everything downstream starts from the cached matrix, exactly as the
  // solve and serve workloads do.
  clado::core::MpqPipeline pipe(tm.model, sensitivity_batch(tm), options);
  pipe.load_sensitivities(ref + "/g_raw.sens");
  const double int8 = tm.model.uniform_size_bytes(8);

  const auto mixed = pipe.assign(clado::core::Algorithm::kClado, int8 * kAssignFraction);
  write_floats(ref + "/mixed_bits.f32", std::vector<float>(mixed.bits.begin(), mixed.bits.end()));

  const std::vector<GridEntry> grid = solve_grid();
  std::vector<clado::core::Assignment> solved;
  for (const GridEntry& e : grid) solved.push_back(pipe.assign(e.algorithm, int8 * e.fraction));
  write_floats(ref + "/grid_choices.f32", grid_choices(solved));

  write_floats(ref + "/solo_fq.f32",
               solo_logits(tm, std::vector<int>(tm.model.quant_layers.size(), 8), false));
  write_floats(ref + "/solo_mixed.f32", solo_logits(tm, mixed.bits, true));

  std::printf("prepare: mixed bits");
  for (const int b : mixed.bits) std::printf(" %d", b);
  std::printf("; %zu grid solves; solo logits for %lld val images\n", grid.size(),
              static_cast<long long>(kValImages));
}

}  // namespace cladobench
