// cladobench command line:
//   cladobench --workload W --seed N --seconds S --trace 0|1 --state-dir DIR
//   cladobench --prepare --state-dir DIR
// Normally started through run.py, which builds this binary, prepares the
// state dir once and pins the environment (see run.py).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/thread_pool.h"

namespace {

using namespace cladobench;

#ifndef CLADOBENCH_BUILD_TYPE
#define CLADOBENCH_BUILD_TYPE "unknown"
#endif

void print_host_facts(const Run& run) {
  std::printf("host: nproc=%u kernel_level=%s build=%s gemm_pool_threads=%d sweep_threads=%d "
              "serve_workers=%d generator_threads=1 workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(),
              clado::tensor::kernels::level_name(clado::tensor::kernels::active_level()),
              CLADOBENCH_BUILD_TYPE, clado::tensor::ThreadPool::global().num_threads(),
              sweep_threads(), kServeWorkers, run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), run.seconds, run.trace ? 1 : 0);
  std::fflush(stdout);
}

void run_workload(Run& run) {
  if (run.workload == "pipeline") {
    run_pipeline(run);
  } else if (run.workload == "solve") {
    run_solve(run);
  } else if (run.workload == "serve_fq") {
    run_serve(run, false);
  } else if (run.workload == "serve_mixed") {
    run_serve(run, true);
  } else {
    throw std::invalid_argument("unknown workload " + run.workload);
  }
}

/// Traced run: the workload once untraced and once traced (their difference
/// is the tracing overhead), then probes for every layer the workload does
/// not exercise, so each traced run reports the full per-layer set.
Report traced_run(Run& run) {
  Run base = run;
  base.trace = false;
  run_workload(base);

  trace::enable(true);
  run_workload(run);

  // Probes report only what the workload did not: their metrics go through
  // a separate run and fill the gaps.
  Run probe = run;
  probe.e2e = Report{};
  probe.layer = Report{};
  TrainedModel tm = load_calibrated(run);
  probe_kernels(probe, tm);
  probe_nn(tm);
  if (trace::count("core/full_matrix") == 0) {
    const PipelinePass pass = pipeline_pass(probe, tm);
    ptq_top1(*pass.pipe, pass.assignment, tm.val_set);
  }
  if (trace::count("open/request") == 0) serve_probe(probe, tm);
  run.layer.add_missing_metrics(probe.layer);
  run.e2e.add_ops(probe.e2e);
  derive_layer_metrics(run);

  // Overhead of tracing on the workload's throughput (positive = slower).
  const double untraced = base.e2e.get("ops_per_s");
  const double traced = run.e2e.get("ops_per_s");
  run.layer.set("trace.overhead_frac", untraced / traced - 1.0, "frac");
  std::printf("tracing overhead:");
  for (const auto& [name, m] : base.e2e.metrics()) {
    std::printf(" %s %.6g -> %.6g %s;", name.c_str(), m.value, run.e2e.get(name), m.unit.c_str());
  }
  std::printf("\n");

  const std::string path = run.state_dir + "/traces/" + run.workload + ".json";
  std::filesystem::create_directories(run.state_dir + "/traces");
  if (!trace::write(path)) throw std::runtime_error("cannot write " + path);
  std::printf("trace: spans written to %s\n", path.c_str());

  // The traced run's verdict covers the untraced pass, the traced pass and
  // the probes; its metrics are the per-layer ones.
  Report out = run.layer;
  out.add_ops(base.e2e);
  out.add_ops(run.e2e);
  return out;
}

std::string arg_value(int& i, int argc, char** argv) {
  if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool prepare_only = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload") {
        run.workload = arg_value(i, argc, argv);
      } else if (a == "--seed") {
        run.seed = std::stoull(arg_value(i, argc, argv));
      } else if (a == "--seconds") {
        run.seconds = std::stod(arg_value(i, argc, argv));
      } else if (a == "--trace") {
        const std::string v = arg_value(i, argc, argv);
        if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
        run.trace = v == "1";
      } else if (a == "--state-dir") {
        run.state_dir = arg_value(i, argc, argv);
      } else if (a == "--prepare") {
        prepare_only = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (run.state_dir.empty()) throw std::invalid_argument("--state-dir is required");
    if (!prepare_only && run.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(run.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cladobench: %s\n", e.what());
    return 2;
  }

  try {
    print_host_facts(run);
    if (prepare_only) {
      prepare(run);
      return 0;
    }
    const Report out = run.trace ? traced_run(run) : (run_workload(run), run.e2e);
    for (const std::string& f : out.failures()) std::printf("FAILED: %s\n", f.c_str());
    std::printf("%s\n", out.json().c_str());
    std::fflush(stdout);
    return out.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cladobench: %s\n", e.what());
    return 1;
  }
}
