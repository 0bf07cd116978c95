#include "clado/backend/backend.h"

#include <stdexcept>
#include <string>

#include "clado/quant/int4.h"
#include "clado/quant/int8.h"

namespace clado::backend {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
    case Precision::kInt4: return "int4";
  }
  return "?";
}

Precision precision_for_bits(int bits) {
  if (bits <= 0 || bits > 8) return Precision::kFp32;
  return bits <= 4 ? Precision::kInt4 : Precision::kInt8;
}

void integer_gemm(const PreparedLayer& layer, std::int64_t rows, const std::int8_t* in,
                  std::int32_t za, std::int32_t* acc) {
  switch (layer.precision) {
    case Precision::kInt8:
      clado::quant::gemm_s8s8_s32(rows, layer.n, layer.k, in, za, layer.w_s8.data(),
                                  /*zb=*/0, acc);
      return;
    case Precision::kInt4:
      clado::quant::gemm_s8s4_s32(rows, layer.n, layer.k, in, za, layer.w_s4.data(),
                                  /*zb=*/0, acc);
      return;
    case Precision::kFp32:
      break;
  }
  throw std::logic_error("integer_gemm: a fp32 layer has no integer codes");
}

PreparedLayer prepare_layer(const clado::quant::WeightCodes& codes, std::int64_t n,
                            std::int64_t k) {
  PreparedLayer out;
  out.precision = precision_for_bits(codes.bits);
  out.n = n;
  out.k = k;
  if (out.precision == Precision::kFp32) return out;
  if (static_cast<std::int64_t>(codes.codes.size()) != n * k) {
    throw std::invalid_argument("prepare_layer: " + std::to_string(codes.codes.size()) +
                                " codes for an [" + std::to_string(n) + ", " +
                                std::to_string(k) + "] weight");
  }
  out.w_scale = codes.scale;
  if (out.precision == Precision::kInt4) {
    out.w_s4 = clado::quant::pack_s4_rows(codes.codes.data(), n, k);
  } else {
    out.w_s8 = codes.codes;
  }
  return out;
}

}  // namespace clado::backend
