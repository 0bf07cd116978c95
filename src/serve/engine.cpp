#include "clado/serve/engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "clado/models/model.h"
#include "clado/nn/module.h"
#include "clado/obs/obs.h"
#include "clado/quant/freeze.h"
#include "clado/serve/plan.h"

namespace clado::serve {

Engine::Engine(clado::models::Model model, EngineSpec spec)
    : spec_(std::move(spec)), model_(std::move(model)) {
  if (spec_.replicas < 1) {
    throw std::invalid_argument("Engine: replicas must be >= 1");
  }
  if (spec_.max_batch < 1) {
    throw std::invalid_argument("Engine: max_batch must be >= 1");
  }
  backend_enabled_ = spec_.backend == BackendMode::kOn;
  const clado::obs::Span span("serve/engine_load");
  model_.net->set_training(false);
  model_.net->clear_cache();
  std::vector<clado::quant::WeightCodes> codes;
  const auto report = clado::quant::freeze_quantized(*model_.net, model_.quant_layers, spec_.bits,
                                                     model_.scheme,
                                                     backend_enabled_ ? &codes : nullptr);
  weight_bytes_ = report.weight_bytes;
  batchnorms_folded_ = report.batchnorms_folded;
  sample_shape_ = {model_.channels, model_.image_size, model_.image_size};
  model_.net->set_inference(true);

  PreparedMap prep_map;
  if (backend_enabled_) {
    // The exact integer realization of the frozen weights, keyed by the
    // module every plan's conv/linear step reads.
    prepared_.reserve(model_.quant_layers.size());
    for (std::size_t i = 0; i < model_.quant_layers.size(); ++i) {
      auto* layer = model_.quant_layers[i].layer;
      const std::int64_t rows = layer->quant_out_channels();
      const std::int64_t cols = layer->weight_param().value.numel() / rows;
      prepared_.push_back(prepare_layer(codes[i], rows, cols));
      const auto* mod = dynamic_cast<const clado::nn::Module*>(layer);
      if (mod != nullptr) prep_map.emplace(mod, &prepared_.back());
    }
  }

  {
    const clado::obs::Span compile_span("serve/plan_compile");
    plans_.reserve(static_cast<std::size_t>(spec_.replicas));
    std::int64_t backend_layers = 0;
    for (int r = 0; r < spec_.replicas; ++r) {
      plans_.push_back(std::make_unique<CompiledPlan>(*model_.net, sample_shape_,
                                                      spec_.max_batch, &prep_map));
      backend_layers += static_cast<std::int64_t>(plans_.back()->backend_steps());
    }
    clado::obs::counter("serve.plans_compiled").add(static_cast<std::int64_t>(plans_.size()));
    if (backend_layers > 0) clado::obs::counter("serve.backend_steps").add(backend_layers);
  }
  // Every plan compiles the same graph against the same map, so replica 0's
  // steps name every layer that runs integer; the rest become kFp32 entries
  // that keep only their shape, freeing their codes.
  std::unordered_set<const PreparedLayer*> used;
  for (const PlanStep& step : plans_.front()->steps()) used.insert(step.prepared);
  for (PreparedLayer& prep : prepared_) {
    if (used.count(&prep) != 0) continue;
    PreparedLayer fp32;
    fp32.n = prep.n;
    fp32.k = prep.k;
    prep = std::move(fp32);
  }
  predict_out_.resize(plans_.size());
  clado::obs::counter("serve.engines_loaded").add();
}

void Engine::check_replica(int replica) const {
  if (replica < 0 || replica >= replicas()) {
    throw std::invalid_argument("Engine: replica " + std::to_string(replica) + " out of [0, " +
                                std::to_string(replicas()) + ")");
  }
}

Tensor Engine::infer(const Tensor& batch, int replica) {
  check_replica(replica);
  if (batch.dim() != 4 || batch.size(1) != sample_shape_[0] ||
      batch.size(2) != sample_shape_[1] || batch.size(3) != sample_shape_[2]) {
    throw std::invalid_argument("Engine::infer: input " + batch.shape_str() +
                                " does not batch samples of shape [" +
                                std::to_string(sample_shape_[0]) + ", " +
                                std::to_string(sample_shape_[1]) + ", " +
                                std::to_string(sample_shape_[2]) + "]");
  }
  auto& plan = *plans_[static_cast<std::size_t>(replica)];
  const clado::obs::Span span("serve/engine_forward");
  const std::int64_t n = batch.size(0);
  const std::int64_t sample = plan.sample_numel();
  const std::int64_t classes = num_classes();
  Tensor out({n, classes});
  Tensor chunk_out;
  for (std::int64_t at = 0; at < n; at += spec_.max_batch) {
    const std::int64_t take = std::min(spec_.max_batch, n - at);
    std::memcpy(plan.input(), batch.data() + at * sample,
                sizeof(float) * static_cast<std::size_t>(take * sample));
    plan.run(take, chunk_out);
    std::memcpy(out.data() + at * classes, chunk_out.data(),
                sizeof(float) * static_cast<std::size_t>(take * classes));
  }
  return out;
}

float* Engine::batch_buffer(int replica) {
  check_replica(replica);
  return plans_[static_cast<std::size_t>(replica)]->input();
}

void Engine::infer_pinned(std::int64_t n, Tensor& out, int replica) {
  check_replica(replica);
  const clado::obs::Span span("serve/engine_forward");
  plans_[static_cast<std::size_t>(replica)]->run(n, out);
}

std::int64_t Engine::predict(const Tensor& sample, int replica) {
  check_replica(replica);
  // [C, H, W], or [1, C, H, W]: the trailing dims are checked only once
  // the rank is known to be 3 or 4.
  if (!(sample.dim() == 3 || (sample.dim() == 4 && sample.size(0) == 1)) ||
      sample.size(-3) != sample_shape_[0] || sample.size(-2) != sample_shape_[1] ||
      sample.size(-1) != sample_shape_[2]) {
    throw std::invalid_argument("Engine::predict: sample " + sample.shape_str() +
                                " is neither [C, H, W] nor [1, C, H, W] for [" +
                                std::to_string(sample_shape_[0]) + ", " +
                                std::to_string(sample_shape_[1]) + ", " +
                                std::to_string(sample_shape_[2]) + "]");
  }
  std::memcpy(batch_buffer(replica), sample.data(),
              sizeof(float) * static_cast<std::size_t>(sample.numel()));
  Tensor& logits = predict_out_[static_cast<std::size_t>(replica)];
  infer_pinned(1, logits, replica);
  return logits.argmax();
}

const CompiledPlan* Engine::plan(int replica) const {
  check_replica(replica);
  return plans_[static_cast<std::size_t>(replica)].get();
}

}  // namespace clado::serve
