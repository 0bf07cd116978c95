// serve_fq / serve_mixed: a 2-worker serve::Server at max_batch 8 fed by
// one generator thread through the non-blocking Server::submit.
//
// Two phases per run: a closed loop that keeps kClosedInFlight requests
// outstanding (peak throughput), then an open loop with Poisson arrivals
// at kOpenRate in which each request is timed from its due time —
// generator lateness plus Response::total_us — so a stall also delays the
// requests queued behind it. Threads: the generator, the two server
// workers, and a one-thread GEMM pool (set by the launcher).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/serve/serve.h"
#include "clado/tensor/rng.h"

namespace cladobench {
namespace {

using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::Response;
using clado::serve::Server;
using clado::serve::ServerConfig;
using clado::serve::Status;
using clado::tensor::Tensor;

constexpr std::int64_t kWarmupRequests = 256;
/// Share of the run's seconds spent in the closed loop; the rest is open.
constexpr double kClosedShare = 0.4;
constexpr int kPlanProbeReps = 200;
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::int64_t kSpinNs = 200'000;

struct Served {
  std::shared_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

std::shared_ptr<Engine> make_engine(const TrainedModel& tm, const std::vector<int>& bits,
                                    bool mixed) {
  EngineSpec spec;
  spec.bits = bits;
  spec.replicas = kServeWorkers;
  spec.label = mixed ? "mixed" : "int8";
  spec.max_batch = kServeMaxBatch;
  spec.fusion = clado::serve::Fusion::kOn;
  spec.backend = mixed ? clado::serve::BackendMode::kOn : clado::serve::BackendMode::kOff;
  const trace::Span span("serve/engine_load");
  return std::make_shared<Engine>(tm.model.clone(), std::move(spec));
}

Served start_server(const TrainedModel& tm, const std::vector<int>& bits, bool mixed) {
  Served s;
  s.engine = make_engine(tm, bits, mixed);
  ServerConfig cfg;
  cfg.workers = kServeWorkers;
  cfg.max_batch = kServeMaxBatch;
  cfg.max_delay_us = kServeMaxDelayUs;
  // Far above any backlog the open rate builds: admission never sheds, so
  // every request is served and checked.
  cfg.queue_capacity = 1 << 16;
  s.server = std::make_unique<Server>(s.engine, cfg);
  return s;
}

/// Requests draw val images in a seeded order; responses are checked
/// against the prepared solo-inference logits of the same image.
struct Traffic {
  std::vector<Tensor> images;
  std::vector<std::int64_t> labels;
  std::vector<std::size_t> order;
  std::vector<float> solo;
  std::int64_t classes = 0;
};

Traffic make_traffic(const Run& run, const TrainedModel& tm, bool mixed) {
  Traffic t;
  for (std::int64_t i = 0; i < kValImages; ++i) {
    t.images.push_back(tm.val_set.image_of(i));
    t.labels.push_back(tm.val_set.label_of(i));
  }
  t.order = seeded_order(static_cast<std::size_t>(kValImages), run.seed);
  t.solo = read_floats(run.reference_dir() + (mixed ? "/solo_mixed.f32" : "/solo_fq.f32"));
  t.classes = tm.model.num_classes;
  if (static_cast<std::int64_t>(t.solo.size()) != kValImages * t.classes) {
    throw std::runtime_error("solo-inference reference has the wrong size");
  }
  return t;
}

struct InFlight {
  std::future<Response> response;
  std::int64_t index = 0;  ///< request number within the session
  std::int64_t image = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
};

class Session {
 public:
  Session(Run& run, Server& server, const Traffic& traffic, bool mixed)
      : run_(run), server_(server), traffic_(traffic), mixed_(mixed) {}

  InFlight submit(std::int64_t due_ns) {
    InFlight f;
    f.index = next_++;
    f.image = static_cast<std::int64_t>(traffic_.order[static_cast<std::size_t>(f.index % kValImages)]);
    f.due_ns = due_ns;
    f.submit_ns = trace::now_ns();
    f.response = server_.submit(traffic_.images[static_cast<std::size_t>(f.image)]);
    return f;
  }

  /// Checks one response; `phase` prefixes its spans ("closed"/"open").
  void finish(InFlight& f, const char* phase, bool measured) {
    const Response r = f.response.get();
    const bool ok = r.status == Status::kOk;
    const float* solo = traffic_.solo.data() + f.image * traffic_.classes;
    const bool same = ok && r.logits.numel() == traffic_.classes &&
                      same_bits(r.logits.data(), solo, static_cast<std::size_t>(traffic_.classes));
    // serve_fq must reproduce solo inference bit for bit; serve_mixed's
    // co-batching dependence is a known defect, counted but not gated.
    run_.e2e.op(ok && (same || mixed_),
                ok ? "serve: response logits differ from solo inference"
                   : std::string("serve: request failed with ") + clado::serve::status_name(r.status));
    if (!measured) return;
    ++served_;
    if (ok && !same) ++mismatched_;
    correct_.push_back(ok && r.predicted == traffic_.labels[static_cast<std::size_t>(f.image)]);

    const double late_ms = static_cast<double>(f.submit_ns - f.due_ns) * 1e-6;
    if (std::string_view(phase) == "open") {
      latency_ms_.push_back(late_ms + static_cast<double>(r.total_us) * 1e-3);
      late_ms_.push_back(late_ms);
      window_.push_back((f.due_ns - open_start_ns_) / kWindowNs);
    }
    if (trace::enabled()) {
      const std::string p(phase);
      const std::int64_t req = f.index + 1;
      const std::int64_t id = trace::record(p + "/request", f.submit_ns, r.total_us * 1000, 0, req);
      trace::record(p + "/queue", f.submit_ns, r.queue_us * 1000, id, req);
      trace::record(p + "/exec", f.submit_ns + r.queue_us * 1000,
                    (r.total_us - r.queue_us) * 1000, id, req);
      if (p == "open") trace::record("gen/late", f.due_ns, f.submit_ns - f.due_ns, 0, req);
    }
  }

  void warmup() {
    std::deque<InFlight> q;
    for (std::int64_t i = 0; i < kWarmupRequests; ++i) {
      q.push_back(submit(trace::now_ns()));
      if (static_cast<int>(q.size()) >= kClosedInFlight) {
        finish(q.front(), "warmup", false);
        q.pop_front();
      }
    }
    for (auto& f : q) finish(f, "warmup", false);
    next_ = 0;
  }

  /// Keeps kClosedInFlight requests outstanding for `seconds`; returns the
  /// completion rate of each whole half-second window.
  std::vector<double> closed_loop(double seconds, std::int64_t* batches) {
    std::deque<InFlight> q;
    const std::int64_t batches0 = clado::obs::counter("serve.batches").value();
    const auto t0 = Clock::now();
    auto window_start = t0;
    std::int64_t in_window = 0;
    std::vector<double> rates;
    while (true) {
      while (static_cast<int>(q.size()) < kClosedInFlight && seconds_since(t0) < seconds) {
        q.push_back(submit(trace::now_ns()));
      }
      if (q.empty()) break;
      finish(q.front(), "closed", true);
      q.pop_front();
      ++closed_done_;
      ++in_window;
      const double w = seconds_since(window_start);
      if (w >= 0.5 && !q.empty()) {
        rates.push_back(static_cast<double>(in_window) / w);
        window_start = Clock::now();
        in_window = 0;
      }
    }
    *batches = clado::obs::counter("serve.batches").value() - batches0;
    return rates;
  }

  /// Poisson arrivals at `rate` for `seconds`, drained at the end.
  void open_loop(double seconds, double rate, std::uint64_t seed) {
    clado::tensor::Rng rng(seed ^ 0x0BE11ULL);
    std::deque<InFlight> q;
    const std::int64_t start = trace::now_ns();
    open_start_ns_ = start;
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    double due = static_cast<double>(start);
    while (static_cast<std::int64_t>(due) < end) {
      const auto due_ns = static_cast<std::int64_t>(due);
      // Sleep to just short of the due time, then spin: waking from a sleep
      // alone costs up to milliseconds on a virtualised host.
      const std::int64_t wait = due_ns - trace::now_ns();
      if (wait > kSpinNs) std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
      while (trace::now_ns() < due_ns) {
      }
      q.push_back(submit(due_ns));
      while (!q.empty() &&
             q.front().response.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(q.front(), "open", true);
        q.pop_front();
      }
      due += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    }
    for (auto& f : q) finish(f, "open", true);
  }

  /// Served top-1 over whole passes of the val set (all requests when the
  /// session served less than one pass), so every image counts equally.
  double top1() const {
    const std::size_t n = correct_.size();
    const std::size_t whole = n >= static_cast<std::size_t>(kValImages)
                                  ? n / kValImages * kValImages
                                  : n;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < whole; ++i) hits += correct_[i] ? 1 : 0;
    return whole == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(whole);
  }

  /// Median over the open loop's one-second windows (by due time) of each
  /// window's median latency: a host stall spoils one window, not the run's
  /// figure.
  double windowed_p50() const {
    std::map<std::int64_t, std::vector<double>> by_window;
    for (std::size_t i = 0; i < latency_ms_.size(); ++i) {
      by_window[window_[i]].push_back(latency_ms_[i]);
    }
    std::vector<double> per_window;
    for (const auto& [w, v] : by_window) {
      if (static_cast<double>(v.size()) >= 0.5 * kOpenRate) per_window.push_back(median(v));
    }
    return median(per_window);
  }

  std::int64_t served() const { return served_; }
  std::int64_t mismatched() const { return mismatched_; }
  std::int64_t closed_done() const { return closed_done_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  Run& run_;
  Server& server_;
  const Traffic& traffic_;
  bool mixed_;
  std::int64_t next_ = 0;
  std::int64_t served_ = 0;
  std::int64_t mismatched_ = 0;
  std::int64_t closed_done_ = 0;
  std::vector<bool> correct_;
  std::vector<double> latency_ms_;
  std::vector<double> late_ms_;
  std::vector<std::int64_t> window_;  ///< open-loop window of each latency sample
  std::int64_t open_start_ns_ = 0;
};

std::vector<int> serve_bits(const Run& run, const TrainedModel& tm, bool mixed) {
  if (!mixed) return std::vector<int>(tm.model.quant_layers.size(), 8);
  std::vector<int> bits;
  for (const float b : read_floats(run.reference_dir() + "/mixed_bits.f32")) {
    bits.push_back(static_cast<int>(b));
  }
  return bits;
}

/// Direct Engine::infer_pinned calls on replica 0 at batch 1 and 8, before
/// the server takes traffic (its workers are parked, so nothing overlaps).
void probe_plan(Engine& engine, const Traffic& traffic) {
  if (!trace::enabled()) return;
  float* pin = engine.batch_buffer(0);
  const std::int64_t per_sample = traffic.images.front().numel();
  for (std::int64_t i = 0; i < kServeMaxBatch; ++i) {
    std::memcpy(pin + i * per_sample, traffic.images[static_cast<std::size_t>(i)].data(),
                sizeof(float) * static_cast<std::size_t>(per_sample));
  }
  Tensor logits;
  for (const std::int64_t n : {std::int64_t{1}, kServeMaxBatch}) {
    const std::string name = "serve/plan.b" + std::to_string(n);
    for (int i = 0; i < 10; ++i) engine.infer_pinned(n, logits, 0);  // warm
    for (int i = 0; i < kPlanProbeReps; ++i) {
      const trace::Span span(name);
      engine.infer_pinned(n, logits, 0);
    }
  }
}

/// Runs a serving session and reports its end-to-end metrics into `run`
/// (when `report`) and its counters into run.layer (traced runs).
void serve_session(Run& run, const TrainedModel& tm, Served& s, bool mixed, double seconds,
                   bool report) {
  const Traffic traffic = make_traffic(run, tm, mixed);
  probe_plan(*s.engine, traffic);

  const std::int64_t rejected0 = clado::obs::counter("serve.rejected_overload").value();
  const std::int64_t expired0 = clado::obs::counter("serve.deadline_expired").value();
  Session session(run, *s.server, traffic, mixed);
  session.warmup();
  std::int64_t batches = 0;
  const std::vector<double> rates = session.closed_loop(seconds * kClosedShare, &batches);
  const double peak_rps = median(rates);
  session.open_loop(seconds * (1.0 - kClosedShare), kOpenRate, run.seed);

  const auto& lat = session.latency_ms();
  const double mismatch =
      static_cast<double>(session.mismatched()) / static_cast<double>(session.served());
  if (report) {
    run.e2e.set("ops_per_s", peak_rps, "1/s");
    run.e2e.set("p50_ms", session.windowed_p50(), "ms");
    run.e2e.set("top1", session.top1(), "frac");
  }
  if (run.trace) {
    Report& l = run.layer;
    l.set("serve.mean_batch",
          static_cast<double>(session.closed_done()) / static_cast<double>(batches), "count");
    l.set("serve.rejected",
          static_cast<double>(clado::obs::counter("serve.rejected_overload").value() - rejected0),
          "count");
    l.set("serve.expired",
          static_cast<double>(clado::obs::counter("serve.deadline_expired").value() - expired0),
          "count");
    l.set("serve.cobatch_mismatch_frac", mismatch, "frac");
    // The open loop's tail: too sensitive to a shared host's stalls to gate
    // on (spread across runs up to 0.9 of its median), so reported here.
    l.set("serve.latency_ms.p95", percentile(lat, 95), "ms");
    l.set("serve.latency_ms.p99", percentile(lat, 99), "ms");
  }
  std::printf("serve_%s: closed loop %.1f req/s (median of %zu half-second windows; %d in "
              "flight, mean batch %.2f)\n",
              mixed ? "mixed" : "fq", peak_rps, rates.size(), kClosedInFlight,
              static_cast<double>(session.closed_done()) / static_cast<double>(batches));
  std::printf("  open loop at %.0f req/s, %zu samples: windowed p50 %.3f ms; whole-run p50 %.3f "
              "ms p95 %.3f ms p99 %.3f ms max %.3f ms; generator late p50 %.3f ms p99 %.3f ms max "
              "%.3f ms\n",
              kOpenRate, lat.size(), session.windowed_p50(), median(lat),
              percentile(lat, 95), percentile(lat, 99), max_of(lat), median(session.late_ms()),
              percentile(session.late_ms(), 99), max_of(session.late_ms()));
  std::printf("  served top-1 %.4f; %lld of %lld responses differ from solo inference (%.4f)\n",
              session.top1(), static_cast<long long>(session.mismatched()),
              static_cast<long long>(session.served()), mismatch);
}

}  // namespace

void run_serve(Run& run, bool mixed) {
  std::optional<TrainedModel> tm;
  std::optional<Served> served;
  run.e2e.set("setup_s",
              median_setup_s(
                  [&] {
                    served.reset();
                    tm.reset();
                  },
                  [&] {
                    tm.emplace(load_calibrated(run));
                    served.emplace(start_server(*tm, serve_bits(run, *tm, mixed), mixed));
                  }),
              "s");
  serve_session(run, *tm, *served, mixed, run.seconds, /*report=*/true);
  served->server->drain();
}

void serve_probe(Run& run, const TrainedModel& tm) {
  Served served = start_server(tm, serve_bits(run, tm, false), false);
  serve_session(run, tm, served, false, 2.0, /*report=*/false);
  served.server->drain();
}

std::vector<float> solo_logits(const TrainedModel& tm, const std::vector<int>& bits, bool mixed) {
  const std::shared_ptr<Engine> engine = make_engine(tm, bits, mixed);
  std::vector<float> out;
  for (std::int64_t i = 0; i < kValImages; ++i) {
    Tensor one = tm.val_set.image_of(i);
    const Tensor logits = engine->infer(one.reshape({1, one.size(0), one.size(1), one.size(2)}));
    out.insert(out.end(), logits.data(), logits.data() + logits.numel());
  }
  return out;
}

}  // namespace cladobench
