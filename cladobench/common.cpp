#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "clado/data/synthcv.h"
#include "clado/obs/obs.h"
#include "clado/tensor/rng.h"

namespace cladobench {

// ---- Report ----------------------------------------------------------------

void Report::op(bool ok, const std::string& what_failed) { ops(1, ok ? 0 : 1, what_failed); }

void Report::ops(std::int64_t n, std::int64_t failed, const std::string& what_failed) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 16) failures_.push_back(what_failed);
}

void Report::add_missing_metrics(const Report& other) {
  for (const auto& [name, m] : other.metrics_) metrics_.emplace(name, m);
}

void Report::add_ops(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& f : other.failures_) {
    if (failures_.size() < 16) failures_.push_back(f);
  }
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ---- tracing ---------------------------------------------------------------

namespace trace {
namespace {

struct Recorder {
  std::mutex mutex;
  std::vector<Event> events;  // guarded by mutex
  std::int64_t next_id = 1;   // guarded by mutex
  bool on = false;            // set before any span opens
  const Clock::time_point epoch = Clock::now();
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

// Innermost open span of this thread (the parent of the next one).
thread_local std::int64_t t_open = 0;

std::int64_t next_id() {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.next_id++;
}

void push(Event e) {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.events.push_back(std::move(e));
}

}  // namespace

void enable(bool on) { recorder().on = on; }
bool enabled() { return recorder().on; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - recorder().epoch)
      .count();
}

Span::Span(std::string_view name, std::int64_t request) {
  if (!enabled()) return;
  name_ = name;
  id_ = next_id();
  parent_ = t_open;
  request_ = request;
  t_open = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open = parent_;
  push(Event{std::move(name_), start_ns_, end - start_ns_, id_, parent_, request_});
}

std::int64_t record(std::string_view name, std::int64_t start_ns, std::int64_t dur_ns,
                    std::int64_t parent, std::int64_t request) {
  if (!enabled()) return 0;
  const std::int64_t id = next_id();
  push(Event{std::string(name), start_ns, dur_ns, id, parent, request});
  return id;
}

std::vector<double> durations_ms(std::string_view name) {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<double> out;
  for (const Event& e : r.events) {
    if (e.name == name) out.push_back(static_cast<double>(e.dur_ns) * 1e-6);
  }
  return out;
}

std::size_t count(std::string_view name) { return durations_ms(name).size(); }

bool write(const std::string& path) {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const Event& e = r.events[i];
    // Chrome "X" events in microseconds; each request gets its own row (tid),
    // the benchmark's own phases row 0.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}%s\n",
                  e.name.c_str(), static_cast<long long>(e.request),
                  static_cast<double>(e.start_ns) * 1e-3, static_cast<double>(e.dur_ns) * 1e-3,
                  static_cast<long long>(e.id), static_cast<long long>(e.parent),
                  static_cast<long long>(e.request), i + 1 < r.events.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace trace

// ---- shared set-up ---------------------------------------------------------

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  clado::tensor::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(i))]);
  }
  return order;
}

SolverCounters SolverCounters::now() {
  return {clado::obs::counter("solver.iqp.nodes").value(),
          clado::obs::counter("solver.iqp.pruned").value(),
          clado::obs::counter("solver.iqp.oracle_calls").value()};
}

void SolverCounters::report_since(const SolverCounters& before, double per,
                                  Report& layer) const {
  layer.set("solver.nodes", static_cast<double>(nodes - before.nodes) / per, "count");
  layer.set("solver.pruned", static_cast<double>(pruned - before.pruned) / per, "count");
  layer.set("solver.oracle_calls", static_cast<double>(oracle_calls - before.oracle_calls) / per,
            "count");
}

int sweep_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

TrainedModel load_calibrated(const Run& run) {
  clado::models::ZooConfig cfg;
  cfg.artifacts_dir = run.artifacts_dir();
  if (clado::models::resolve_artifacts_dir(cfg) != cfg.artifacts_dir) {
    throw std::runtime_error("CLADO_ARTIFACTS_DIR overrides the benchmark's artifacts dir");
  }
  const std::string weights = cfg.artifacts_dir + "/" + kModel + ".bin";
  if (!std::ifstream(weights)) {
    throw std::runtime_error("missing " + weights + ": run with --prepare first");
  }
  TrainedModel tm = clado::models::get_or_train(kModel, cfg);
  tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));
  return tm;
}

clado::data::Batch sensitivity_batch(const TrainedModel& tm) {
  // Set index 0 of the repository's sensitivity-set protocol (the same set
  // the paper-table benches measure on).
  const auto sets = clado::data::make_sensitivity_sets(4096, kSensitivitySetSize, 1, 0xBEEF);
  return tm.train_set.make_batch(sets.back());
}

double ptq_top1(clado::core::MpqPipeline& pipe, const clado::core::Assignment& assignment,
                const clado::data::SynthCvDataset& val_set) {
  std::unique_ptr<clado::quant::WeightSnapshot> snapshot;
  {
    const trace::Span span("quant/apply_ptq");
    snapshot = pipe.apply_ptq(assignment);
  }
  double top1 = 0.0;
  {
    const trace::Span span("models/accuracy_on");
    top1 = pipe.model().accuracy_on(val_set, kValImages);
  }
  snapshot->restore();
  return top1;
}

std::vector<float> read_floats(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("missing reference file " + path + ": run --prepare");
  const auto bytes = static_cast<std::size_t>(in.tellg());
  if (bytes % sizeof(float) != 0) throw std::runtime_error("corrupt reference file " + path);
  std::vector<float> v(bytes / sizeof(float));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(bytes));
  if (!in) throw std::runtime_error("short read of " + path);
  return v;
}

void write_floats(const std::string& path, const std::vector<float>& values) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(float)));
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace cladobench
