// clado::backend — per-precision integer execution material.
//
// Everywhere else in the repo a bit-width assignment is *simulated*: the
// fake-quant pipeline snaps fp32 weights onto the integer grid but still
// multiplies in float. This subsystem executes the assignment the way the
// deployment hardware would: each quantized layer carries a PreparedLayer
// — its exact integer codes at the assigned precision — and
// integer_gemm() switches on that precision between the two kernels:
//
//   kInt8  int8 codes, the widening AVX2/scalar gemm_s8s8_s32 seam.
//   kInt4  codes packed two per byte, widening s4 dot products
//          (gemm_s8s4_s32) — real sub-byte storage, not simulation.
//
// Layers with no integer realization (bits == 0, affine / per-channel
// schemes, > 8 bits) are kFp32 and keep the fp32 kernels.
//
// Precision boundaries stay in fp32: inputs are quantized to int8 right
// before an integer GEMM and the int32 accumulator is requantized to fp32
// right after, which is exactly the semantics the fake-quant sensitivity
// sweep calibrated (weights on the grid, activations on the grid, float at
// layer seams). serve::CompiledPlan runs a conv/linear step on integers
// exactly when serve::Engine handed it an integer PreparedLayer, built
// from the WeightCodes captured at freeze.
#pragma once

#include <cstdint>
#include <vector>

#include "clado/quant/qat.h"

namespace clado::backend {

/// Arithmetic a layer executes in. Values index latency-table columns, so
/// they are part of the artifact format — append only.
enum class Precision {
  kFp32 = 0,
  kInt8 = 1,
  kInt4 = 2,
};

inline constexpr int kNumPrecisions = 3;

/// Stable lowercase name ("fp32", "int8", "int4") — appears in plan dumps,
/// obs metrics and test output.
const char* precision_name(Precision p);

/// The precision that executes a layer quantized to `bits`: 0 (fp32 layer)
/// and anything above 8 stay fp32; 1-4 bits pack into the int4 backend
/// (codes fit [-8, 7]); 5-8 bits run on int8. This is also the mapping
/// from a solver candidate bit-width to its latency-table column.
Precision precision_for_bits(int bits);

/// Immutable per-layer execution material, built once at engine freeze and
/// shared by every plan of the engine. `n` is the number of weight rows
/// (output channels / features), `k` the reduction length; exactly one of
/// w_s8 / w_s4 is populated for the integer precisions.
struct PreparedLayer {
  Precision precision = Precision::kFp32;
  std::int64_t n = 0;
  std::int64_t k = 0;
  float w_scale = 1.0F;             ///< codes * w_scale == baked weight
  std::vector<std::int8_t> w_s8;    ///< [n, k] codes (kInt8)
  std::vector<std::uint8_t> w_s4;   ///< [n, (k+1)/2] packed codes (kInt4)
};

/// Integer GEMM of `rows` quantized input rows ([rows, k] int8 with zero
/// point `za`) against the prepared weight into acc ([rows, n], int32),
/// on the kernel of layer.precision. Weight codes are symmetric (zero
/// point 0). Throws std::logic_error on a kFp32 layer, which has no codes.
void integer_gemm(const PreparedLayer& layer, std::int64_t rows, const std::int8_t* in,
                  std::int32_t za, std::int32_t* acc);

/// Builds the prepared form of one layer from the codes captured by
/// quant::bake_weights: int8 codes are kept as-is, <= 4-bit codes are
/// packed two per byte, and codes.bits == 0 yields a kFp32 PreparedLayer.
/// Throws std::invalid_argument when codes.codes.size() != n * k.
PreparedLayer prepare_layer(const clado::quant::WeightCodes& codes, std::int64_t n,
                            std::int64_t k);

}  // namespace clado::backend
