// cladobench — the repository's end-to-end and per-layer benchmark.
//
// One process runs one workload for a fixed number of seconds and prints,
// as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// record the benchmark's own spans around calls into the public API of
// core / nn / linalg / solver / quant / models / serve / tensor::kernels
// and derive the per-layer metrics from them. Nothing under src/ is
// instrumented for this benchmark; the library's existing counters
// (SensitivityStats, Assignment, serve::Response, solver.iqp.*) are read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/models/zoo.h"

namespace cladobench {

using Clock = std::chrono::steady_clock;
using clado::models::TrainedModel;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- fixed configuration ---------------------------------------------------

inline constexpr const char* kModel = "resnet_a";
/// Sensitivity-sweep workers: 4, or fewer on a smaller host. The launcher
/// pins the process-wide GEMM pool to one thread, so this is the sweep's
/// whole parallelism.
int sweep_threads();
inline constexpr std::int64_t kSensitivitySetSize = 64;
/// The paper's ½·|B|I(|B|I+1) pair measurements plus the clean pass, for
/// resnet_a's 16 layers × 3 candidate bit-widths.
inline constexpr std::int64_t kExpectedForwards = 48 * 49 / 2 + 1;
/// Size budget of the pipeline's (and serve_mixed's) CLADO assignment, as
/// a fraction of the uniform-int8 weight size.
inline constexpr double kAssignFraction = 0.375;
/// Set-up is repeated this many times per run and the median reported.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kServeWorkers = 2;
inline constexpr std::int64_t kServeMaxBatch = 8;
inline constexpr std::int64_t kServeMaxDelayUs = 500;
/// Closed-loop requests in flight: two full batches per worker, so a worker
/// that finishes a batch finds the next one queued and peak throughput does
/// not wait on the generator's wake-ups (at 16 in flight, host load dropped
/// the mean batch to 7.3 and throughput by up to a quarter more).
inline constexpr int kClosedInFlight = 2 * kServeWorkers * static_cast<int>(kServeMaxBatch);
/// Open-loop arrival rate, low enough that the median request runs in a
/// batch of its own: at 150 req/s about 0.78 of requests do, so p50 is the
/// batching window plus a b1 execution. At 600 req/s only 0.43-0.53 did, so
/// a small slowdown moved p50 from b1 to b2 execution time (0.17-0.26 of
/// its median across runs); at 1200 req/s it also met the queueing knee.
inline constexpr double kOpenRate = 150.0;
inline constexpr std::int64_t kValImages = 1024;

// ---- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Operations attempted/failed plus the metrics a run reports.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double get(const std::string& name) const { return metrics_.at(name).value; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Counts one operation; a failed one is counted and its reason kept.
  void op(bool ok, const std::string& what_failed = {});
  /// Counts `n` operations of which `failed` failed.
  void ops(std::int64_t n, std::int64_t failed, const std::string& what_failed = {});
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Adds `other`'s operation counts and failures.
  void add_ops(const Report& other);
  /// Adds those of `other`'s metrics this report does not have yet.
  void add_missing_metrics(const Report& other);

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  ///< build-tree state: artifacts/, reference/, traces/
  Report e2e;             ///< end-to-end metrics and operation counts
  Report layer;           ///< per-layer metrics (traced runs)

  std::string artifacts_dir() const { return state_dir + "/artifacts"; }
  std::string reference_dir() const { return state_dir + "/reference"; }
};

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 100]); 0 on an empty sample.
double percentile(std::vector<double> v, double q);
double max_of(const std::vector<double>& v);

// ---- tracing ---------------------------------------------------------------
//
// The benchmark's own span recorder: spans live in memory and are written as
// a Chrome trace-event file when the run ends. Disabled (the default) every
// call is a no-op, so untraced runs pay nothing.
namespace trace {

struct Event {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< enclosing span on the same thread (0 = root)
  std::int64_t request = 0;  ///< request id shared by one request's spans (0 = none)
};

void enable(bool on);
bool enabled();
std::int64_t now_ns();

/// RAII span nested under the innermost open span of the calling thread.
class Span {
 public:
  explicit Span(std::string_view name, std::int64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  std::int64_t id_ = 0;
  std::int64_t parent_ = 0;
  std::int64_t request_ = 0;
};

/// Records a span whose interval is known after the fact (e.g. the queue
/// and execution phases a serve::Response reports). Returns its id.
std::int64_t record(std::string_view name, std::int64_t start_ns, std::int64_t dur_ns,
                    std::int64_t parent, std::int64_t request);

/// Durations (ms) of every recorded span called `name`.
std::vector<double> durations_ms(std::string_view name);
std::size_t count(std::string_view name);
/// Writes every recorded span as Chrome trace-event JSON.
bool write(const std::string& path);

}  // namespace trace

// ---- shared set-up ---------------------------------------------------------

/// Median wall time of kSetupRepeats set-ups: `teardown` (untimed) drops
/// the previous one, `setup` builds the next, which the workload then uses.
template <typename Teardown, typename Setup>
double median_setup_s(Teardown&& teardown, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(seconds_since(t0));
  }
  return median(seconds);
}

/// A permutation of 0..n-1 drawn from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// Snapshot of the solver's branch-and-bound work counters (solver.iqp.*).
struct SolverCounters {
  std::int64_t nodes = 0;
  std::int64_t pruned = 0;
  std::int64_t oracle_calls = 0;
  static SolverCounters now();
  /// Sets solver.nodes/pruned/oracle_calls to (this - before) / per.
  void report_since(const SolverCounters& before, double per, Report& layer) const;
};

/// Warm-cache load of the trained model plus 8-bit activation calibration.
/// Throws if the artifact is missing: training belongs to --prepare only.
TrainedModel load_calibrated(const Run& run);
clado::data::Batch sensitivity_batch(const TrainedModel& tm);
/// Top-1 on the val split with `assignment`'s weights baked into the
/// pipeline's model (restored afterwards), under quant/models spans.
double ptq_top1(clado::core::MpqPipeline& pipe, const clado::core::Assignment& assignment,
                const clado::data::SynthCvDataset& val_set);
/// Reads an exact-bits float file written by write_floats.
std::vector<float> read_floats(const std::string& path);
void write_floats(const std::string& path, const std::vector<float>& values);
/// Bytewise equality of two float ranges (bit-for-bit, NaN-safe).
bool same_bits(const float* a, const float* b, std::size_t n);

// ---- workloads -------------------------------------------------------------

/// One-time preparation outside timed runs: trains the model into the
/// benchmark's artifacts dir and caches the reference Ĝ, the solve grid's
/// reference choices, the mixed assignment and solo-inference logits.
void prepare(const Run& run);

void run_pipeline(Run& run);

/// One solve of the solve workload's grid: algorithm and size budget as a
/// fraction of the uniform-int8 weight size.
struct GridEntry {
  clado::core::Algorithm algorithm = clado::core::Algorithm::kClado;
  double fraction = 0.0;
};
/// The grid in its canonical order (runs solve it in a seeded order).
std::vector<GridEntry> solve_grid();
/// Every assignment's choice vector, concatenated in grid order.
std::vector<float> grid_choices(const std::vector<clado::core::Assignment>& solved);
void run_solve(Run& run);

/// `mixed` selects serve_mixed (CLADO bits on integer backends) over
/// serve_fq (uniform-int8 fake-quant).
void run_serve(Run& run, bool mixed);
/// Logits [kValImages, classes] of each val image inferred alone (batch 1)
/// on the engine a serve workload runs.
std::vector<float> solo_logits(const TrainedModel& tm, const std::vector<int>& bits, bool mixed);

/// One timed calibrated-model → assignment pass (ctor, singles, sweep,
/// PSD, one solve) under spans; used by the pipeline workload and as the
/// core/solver probe of traced runs on other workloads. The pipeline is
/// kept for the caller's PTQ evaluation.
struct PipelinePass {
  double seconds = 0.0;
  std::unique_ptr<clado::core::MpqPipeline> pipe;
  clado::core::Assignment assignment;
};
PipelinePass pipeline_pass(Run& run, TrainedModel& tm);

/// Short serve_fq session (closed + open loop) under spans — the serve
/// probe of traced runs on non-serving workloads.
void serve_probe(Run& run, const TrainedModel& tm);

/// Standalone layer probes of traced runs: fp32/s8/s4 GEMMs on the model's
/// layer shapes, and Model::loss on the sensitivity batch.
void probe_kernels(Run& run, TrainedModel& tm);
void probe_nn(TrainedModel& tm);

/// Derives the per-layer metrics from the recorded spans and counters.
void derive_layer_metrics(Run& run);

}  // namespace cladobench
