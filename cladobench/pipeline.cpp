// pipeline: from a calibrated resnet_a to its first CLADO assignment.
//
// Each job constructs a fresh MpqPipeline on the calibrated model and runs
// the paper's whole cost: single-layer losses, the ½·|B|I(|B|I+1)
// forward sweep (sweep_threads() workers), PSD projection and one IQP
// solve. The sweep dominates (~98%), so nn forwards and the fp32 kernels
// set the time; the solver is ~1%.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"

namespace cladobench {

using clado::core::Algorithm;
using clado::core::MpqPipeline;

PipelinePass pipeline_pass(Run& run, TrainedModel& tm) {
  const std::vector<float> g_ref = read_floats(run.reference_dir() + "/g_raw.f32");
  const double budget = tm.model.uniform_size_bytes(8) * kAssignFraction;
  clado::core::PipelineOptions options;
  options.sweep_threads = sweep_threads();
  const SolverCounters before = SolverCounters::now();

  PipelinePass pass;
  const auto t0 = Clock::now();
  {
    const trace::Span span("core/pipeline_ctor");
    pass.pipe = std::make_unique<MpqPipeline>(tm.model, sensitivity_batch(tm), options);
  }
  MpqPipeline* pipe = pass.pipe.get();
  {
    const trace::Span span("core/singles");
    pipe->engine().single_losses();
  }
  {
    const trace::Span span("core/full_matrix");
    pipe->clado_matrix_raw();
  }
  {
    const trace::Span span("linalg/psd");
    pipe->clado_matrix();
  }
  {
    const trace::Span span("solver/assign");
    pass.assignment = pipe->assign(Algorithm::kClado, budget);
  }
  pass.seconds = seconds_since(t0);

  // Correctness: Ĝ bit-identical to the prepared reference, the paper's
  // forward count exactly, and an assignment within its budget.
  const clado::tensor::Tensor& g = pipe->clado_matrix_raw();
  const auto& stats = pipe->engine().stats();
  const clado::core::Assignment& a = pass.assignment;
  run.e2e.op(static_cast<std::size_t>(g.numel()) == g_ref.size() &&
                 same_bits(g.data(), g_ref.data(), g_ref.size()),
             "pipeline: sensitivity matrix differs from the prepared reference");
  run.e2e.op(stats.forward_measurements == kExpectedForwards,
             "pipeline: " + std::to_string(stats.forward_measurements) + " forwards, expected " +
                 std::to_string(kExpectedForwards));
  run.e2e.op(a.bytes <= budget && !a.choice.empty(),
             "pipeline: assignment exceeds its size budget");

  if (run.trace) {
    Report& l = run.layer;
    SolverCounters::now().report_since(before, 1.0, l);
    l.set("core.forwards", static_cast<double>(stats.forward_measurements), "count");
    l.set("core.stage_execs", static_cast<double>(stats.stage_executions), "count");
    l.set("core.prefix_cache_ratio",
          static_cast<double>(stats.stage_executions_naive) /
              static_cast<double>(stats.stage_executions),
          "ratio");
    l.set("solver.fallbacks", a.used_fallback ? 1.0 : 0.0, "count");
    l.set("solver.objective_mean", a.predicted, "loss");
    l.set("solver.optimal_frac", a.proven_optimal ? 1.0 : 0.0, "frac");
  }

  return pass;
}

void run_pipeline(Run& run) {
  std::optional<TrainedModel> tm;
  const double setup_s =
      median_setup_s([&] { tm.reset(); }, [&] { tm.emplace(load_calibrated(run)); });

  // Whole jobs only: start another while the previous one still fits in
  // the run's time, so every run measures complete assignments.
  std::vector<double> jobs;
  PipelinePass last;
  const auto start = Clock::now();
  do {
    last = pipeline_pass(run, *tm);
    jobs.push_back(last.seconds);
    std::printf("  job %zu: assignment in %.3f s (bits", jobs.size(), last.seconds);
    for (const int b : last.assignment.bits) std::printf(" %d", b);
    std::printf(")\n");
  } while (seconds_since(start) + jobs.back() <= run.seconds);

  // PTQ top-1 of the last assignment, outside the timed jobs.
  const double top1 = ptq_top1(*last.pipe, last.assignment, tm->val_set);
  const double p50 = median(jobs);
  run.e2e.set("setup_s", setup_s, "s");
  run.e2e.set("ops_per_s", 1.0 / p50, "1/s");
  run.e2e.set("p50_ms", p50 * 1e3, "ms");
    run.e2e.set("top1", top1, "frac");
  std::printf("pipeline: %zu assignment(s), median %.3f s at %d sweep threads; PTQ top-1 %.4f\n",
              jobs.size(), p50, sweep_threads(), top1);
}

}  // namespace cladobench
