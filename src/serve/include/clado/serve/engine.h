// clado::serve — serving a CLADO bit-width assignment.
//
// An Engine is the deployable form of a trained model plus an MPQ
// assignment: at load time the network is frozen once (BatchNorm folded,
// weights overwritten with Q(w, b_i) via clado::quant::freeze_quantized)
// and then never mutated again. Every forward runs through a CompiledPlan;
// the Engine keeps the one frozen network and compiles `replicas` plans
// against it. A plan owns its arena and only reads the shared modules, so
// server worker w runs batched forwards on plan w without contending on
// any per-forward state, while the heavy GEMMs inside each forward still
// fan out across the shared tensor::ThreadPool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clado/models/model.h"
#include "clado/serve/plan.h"
#include "clado/tensor/tensor.h"

namespace clado::serve {

using clado::tensor::Shape;
using clado::tensor::Tensor;

/// Kept only so existing EngineSpec initializers still compile: every
/// Engine serves through compiled plans, and the Engine ignores
/// EngineSpec::fusion.
enum class Fusion { kOn };

/// Whether quantized layers may execute on true integer kernels (int8/int4
/// selected per layer from the frozen bit assignment) instead of the
/// fake-quant fp32 simulation. With kOn, a conv/linear layer runs integer
/// exactly when its compiled input is an 8-bit fake-quant output (see
/// CompiledPlan); every other layer keeps the fp32 GEMM on its baked
/// weights.
enum class BackendMode { kOff, kOn };

/// How to freeze an Engine's weights at load time.
struct EngineSpec {
  /// Per-layer bit-widths (one entry per Model::quant_layers, 0 = keep
  /// fp32); empty = all-fp32 engine. BatchNorm is folded either way, so
  /// fp32 and quantized engines run the same deployment graph.
  std::vector<int> bits;
  /// Compiled plans over the frozen network, i.e. concurrent forwards
  /// (>= server workers).
  int replicas = 1;
  std::string label;  ///< display name, e.g. "int8", "mixed-0.375", "fp32"
  /// Largest batch a plan's arena is sized for; infer() runs larger
  /// batches through the plan in chunks of this size.
  std::int64_t max_batch = 32;
  Fusion fusion = Fusion::kOn;  ///< ignored (see Fusion)
  BackendMode backend = BackendMode::kOff;
};

/// Immutable, pre-quantized inference engine. Thread-safe across distinct
/// replica ids; calls on the same replica must not overlap.
class Engine {
 public:
  /// Takes ownership of a pretrained (and, for quantized serving,
  /// activation-calibrated) model and freezes it per `spec`. Throws
  /// std::invalid_argument on a bits/layer-count mismatch or replicas < 1.
  Engine(clado::models::Model model, EngineSpec spec);

  const std::string& label() const { return spec_.label; }
  const std::string& model_name() const { return model_.name; }
  int replicas() const { return static_cast<int>(plans_.size()); }
  std::int64_t num_classes() const { return model_.num_classes; }
  const Shape& sample_shape() const { return sample_shape_; }  ///< [C, H, W]
  const std::vector<int>& bits() const { return spec_.bits; }
  /// Frozen weight storage (Σ |w_i| · b_i / 8; fp32 layers at 32 bits).
  double weight_bytes() const { return weight_bytes_; }
  int batchnorms_folded() const { return batchnorms_folded_; }

  /// Batched forward: input [N, C, H, W] -> logits [N, num_classes], run
  /// through replica `replica`'s plan in chunks of at most
  /// plan_batch_capacity() samples. Throws std::invalid_argument on a
  /// shape mismatch or an out-of-range replica id.
  Tensor infer(const Tensor& batch, int replica = 0);

  /// Plan arena batch capacity (EngineSpec::max_batch).
  std::int64_t plan_batch_capacity() const { return spec_.max_batch; }

  /// True when the engine was built with BackendMode::kOn.
  bool backend_enabled() const { return backend_enabled_; }
  /// Per-quant-layer execution material (empty unless backend_enabled());
  /// ordered like Model::quant_layers / EngineSpec::bits. Entry i's
  /// precision is the arithmetic layer i executes in: a layer no plan step
  /// runs integer is a kFp32 entry without codes.
  const std::vector<PreparedLayer>& prepared_layers() const {
    return prepared_;
  }

  /// Pinned batch-stacking buffer of `replica`'s plan (room for
  /// plan_batch_capacity() samples of sample_shape()). Callers memcpy
  /// samples here, then call infer_pinned.
  float* batch_buffer(int replica = 0);

  /// Runs the plan on the first `n` samples staged in batch_buffer(),
  /// writing logits into `out` ([n, num_classes]; reallocated only on a
  /// shape change, so steady-state same-n calls are allocation-free).
  void infer_pinned(std::int64_t n, Tensor& out, int replica = 0);

  /// Top-1 class of one sample [C, H, W] (or [1, C, H, W]) on `replica`,
  /// staged through the plan's pinned buffer. Throws std::invalid_argument
  /// on any other shape, including a batch of more than one sample.
  std::int64_t predict(const Tensor& sample, int replica = 0);

  /// Compiled plan of `replica` — plan introspection for tests and
  /// diagnostics.
  const CompiledPlan* plan(int replica = 0) const;

 private:
  void check_replica(int replica) const;

  EngineSpec spec_;
  /// The one frozen network; every plan's steps point into its modules, so
  /// it is declared before (and outlives) plans_.
  clado::models::Model model_;
  bool backend_enabled_ = false;
  /// Integer codes per quant layer, built once at freeze and shared (by
  /// pointer) with every plan; entries no plan runs are reset to kFp32.
  /// Stable storage: never resized after construction.
  std::vector<PreparedLayer> prepared_;
  std::vector<std::unique_ptr<CompiledPlan>> plans_;  ///< one per replica
  std::vector<Tensor> predict_out_;                   ///< per-replica logits scratch
  Shape sample_shape_;
  double weight_bytes_ = 0.0;
  int batchnorms_folded_ = 0;
};

}  // namespace clado::serve
