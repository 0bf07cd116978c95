// solve: re-solving the IQP over a grid of size budgets from a cached Ĝ —
// the paper's "re-solve for free" use. No forward pass runs; the solver
// and the PSD projections do all the work, on sweep_threads() threads.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "clado/tensor/thread_pool.h"

namespace cladobench {
namespace {

using clado::core::Algorithm;
using clado::core::MpqPipeline;

/// Grid position of the solve whose PTQ top-1 the run reports: CLADO at
/// 0.4825x int8.
constexpr std::size_t kTop1Entry = 8;

/// One solving thread's model replica and pipeline (MpqPipeline is not
/// thread-safe), and what its grids measured. Pinned in memory: the
/// pipeline refers to the model.
struct Worker {
  clado::models::Model model;
  MpqPipeline pipe;
  std::vector<double> grid_s;
  std::vector<double> solve_ms;
  std::vector<clado::core::Assignment> solved;  ///< the last grid, in grid order
  std::int64_t over_budget = 0;
  std::int64_t wrong_grids = 0;

  Worker(const TrainedModel& tm, const std::string& g_path)
      : model(tm.model.clone()), pipe(model, sensitivity_batch(tm)) {
    pipe.load_sensitivities(g_path);
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
};

}  // namespace

std::vector<GridEntry> solve_grid() {
  // CLADO at 17 budgets from 0.27x to 0.95x int8; BRECQ-block (several
  // times slower per solve) at every other one, so the per-solve median
  // sits inside the CLADO population rather than between the two.
  std::vector<GridEntry> grid;
  for (int i = 0; i < 17; ++i) {
    const double fraction = 0.27 + 0.0425 * i;
    grid.push_back({Algorithm::kClado, fraction});
    if (i % 2 == 0) grid.push_back({Algorithm::kBrecqBlock, fraction});
  }
  return grid;
}

std::vector<float> grid_choices(const std::vector<clado::core::Assignment>& solved) {
  std::vector<float> flat;
  for (const auto& a : solved) flat.insert(flat.end(), a.choice.begin(), a.choice.end());
  return flat;
}

void run_solve(Run& run) {
  const std::string g_path = run.reference_dir() + "/g_raw.sens";
  const std::vector<float> ref_choices = read_floats(run.reference_dir() + "/grid_choices.f32");
  const int threads = sweep_threads();

  std::optional<TrainedModel> tm;
  std::vector<std::unique_ptr<Worker>> workers;
  const double setup_s = median_setup_s(
      [&] {
        workers.clear();
        tm.reset();
      },
      [&] {
        tm.emplace(load_calibrated(run));
        for (int w = 0; w < threads; ++w) workers.push_back(std::make_unique<Worker>(*tm, g_path));
      });

  const std::vector<GridEntry> grid = solve_grid();
  const double int8 = tm->model.uniform_size_bytes(8);
  const SolverCounters before = SolverCounters::now();

  // Every thread solves whole grids, each in its own seeded order (the work
  // is the same in any order), until the run's time is up. A thread's rate
  // depends only on its own solves, so no thread waits on another, and
  // keeping every core busy keeps a shared host's per-core speed steadier
  // than one busy core next to idle ones.
  clado::tensor::ThreadPool pool(threads);
  pool.parallel_for(0, threads, 1, [&](std::int64_t index, std::int64_t) {
    Worker& w = *workers[static_cast<std::size_t>(index)];
    w.solved.resize(grid.size());
    const std::vector<std::size_t> order =
        seeded_order(grid.size(), run.seed * 31 + static_cast<std::uint64_t>(index));
    const auto start = Clock::now();
    do {
      // Reloading resets the cached PSD matrix, so every grid pays the
      // same projection work.
      w.pipe.load_sensitivities(g_path);
      const auto t0 = Clock::now();
      {
        const trace::Span span("linalg/psd");
        w.pipe.clado_matrix();
      }
      for (const std::size_t e : order) {
        const double budget = int8 * grid[e].fraction;
        const auto t1 = Clock::now();
        {
          const trace::Span span("solver/assign");
          w.solved[e] = w.pipe.assign(grid[e].algorithm, budget);
        }
        w.solve_ms.push_back(seconds_since(t1) * 1e3);
        if (w.solved[e].bytes > budget || w.solved[e].choice.empty()) ++w.over_budget;
      }
      w.grid_s.push_back(seconds_since(t0));
      if (grid_choices(w.solved) != ref_choices) ++w.wrong_grids;
    } while (seconds_since(start) + w.grid_s.back() <= run.seconds);
  });

  double ops_per_s = 0.0;
  std::vector<double> solve_ms;
  std::int64_t grids = 0;
  for (const auto& w : workers) {
    ops_per_s += static_cast<double>(grid.size()) / median(w->grid_s);
    solve_ms.insert(solve_ms.end(), w->solve_ms.begin(), w->solve_ms.end());
    grids += static_cast<std::int64_t>(w->grid_s.size());
    run.e2e.ops(static_cast<std::int64_t>(w->solve_ms.size()), w->over_budget,
                "solve: assignment exceeds its size budget");
    run.e2e.ops(static_cast<std::int64_t>(w->grid_s.size()), w->wrong_grids,
                "solve: grid choices differ from the prepared reference");
  }

  // PTQ top-1 of one grid assignment, outside the timed grids.
  Worker& first = *workers.front();
  const double top1 = ptq_top1(first.pipe, first.solved[kTop1Entry], tm->val_set);

  run.e2e.set("setup_s", setup_s, "s");
  run.e2e.set("ops_per_s", ops_per_s, "1/s");
  run.e2e.set("p50_ms", median(solve_ms), "ms");
  run.e2e.set("top1", top1, "frac");

  // Quality over one grid (every grid solves identically).
  double objective_sum = 0.0;
  std::int64_t optimal = 0;
  std::int64_t fallbacks = 0;
  for (const auto& a : first.solved) {
    objective_sum += a.predicted;
    optimal += a.proven_optimal ? 1 : 0;
    fallbacks += a.used_fallback ? 1 : 0;
  }
  const auto solves = static_cast<double>(grid.size());
  if (run.trace) {
    Report& l = run.layer;
    SolverCounters::now().report_since(before, static_cast<double>(grids), l);
    l.set("solver.fallbacks", static_cast<double>(fallbacks), "count");
    l.set("solver.objective_mean", objective_sum / solves, "loss");
    l.set("solver.optimal_frac", static_cast<double>(optimal) / solves, "frac");
  }
  std::printf("solve: %lld grid(s) of %zu solves on %d threads, %.3f solves/s; objective mean "
              "%.6g, %lld/%zu proven optimal; PTQ top-1 %.4f (grid entry %zu)\n",
              static_cast<long long>(grids), grid.size(), threads, ops_per_s,
              objective_sum / solves, static_cast<long long>(optimal), grid.size(), top1,
              kTop1Entry);
}

}  // namespace cladobench
