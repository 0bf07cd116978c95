// Integer execution and latency-budget coverage: precision selection
// (clado::quant) and layer preparation (clado::serve), the latency-table
// artifact and the milliseconds-budgeted pipeline solve (clado::core), and
// — the acceptance bar for integer serving — serve::Engine executing a
// mixed 4/8-bit assignment through real integer kernels on exactly the
// layers whose input is an 8-bit fake-quant output: per-layer backend tags
// in the plan dump, bit-identity with the reference integer path (qlinear /
// qconv2d), logits parity with the fake-quant simulation within a
// documented tolerance, and answers independent of the co-batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/layers.h"
#include "clado/quant/act_quant.h"
#include "clado/quant/int4.h"
#include "clado/quant/int8.h"
#include "clado/quant/qat.h"
#include "clado/serve/engine.h"
#include "clado/serve/plan.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/serialize.h"
#include "clado/tensor/tensor.h"
#include "test_models_util.h"

namespace {

using clado::quant::Precision;
using clado::quant::precision_for_bits;
using clado::quant::precision_name;
using clado::serve::integer_gemm;
using clado::serve::prepare_layer;
using clado::serve::PreparedLayer;
using clado::models::Model;
using clado::serve::BackendMode;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::tensor::Rng;
using clado::tensor::Tensor;

// ---- precision selection ----------------------------------------------------

TEST(Precision, BitsMapOntoBackends) {
  EXPECT_EQ(precision_for_bits(0), Precision::kFp32);
  EXPECT_EQ(precision_for_bits(-1), Precision::kFp32);
  EXPECT_EQ(precision_for_bits(9), Precision::kFp32);
  EXPECT_EQ(precision_for_bits(32), Precision::kFp32);
  for (int b = 1; b <= 4; ++b) EXPECT_EQ(precision_for_bits(b), Precision::kInt4) << b;
  for (int b = 5; b <= 8; ++b) EXPECT_EQ(precision_for_bits(b), Precision::kInt8) << b;
}

TEST(Precision, NamesAreStable) {
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
  EXPECT_STREQ(precision_name(Precision::kInt4), "int4");
}

// ---- prepare_layer ----------------------------------------------------------

clado::quant::WeightCodes make_codes(int bits, float scale, std::vector<std::int8_t> codes) {
  clado::quant::WeightCodes wc;
  wc.bits = bits;
  wc.scale = scale;
  wc.codes = std::move(codes);
  return wc;
}

TEST(PrepareLayer, Int8KeepsCodesVerbatim) {
  const auto wc = make_codes(8, 0.25F, {-128, -1, 0, 1, 127, 64});
  const PreparedLayer prep = prepare_layer(wc, 2, 3);
  EXPECT_EQ(prep.precision, Precision::kInt8);
  EXPECT_EQ(prep.n, 2);
  EXPECT_EQ(prep.k, 3);
  EXPECT_EQ(prep.w_scale, 0.25F);
  ASSERT_EQ(prep.w_s8.size(), 6u);
  EXPECT_TRUE(prep.w_s4.empty());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(prep.w_s8[i], wc.codes[i]);
}

TEST(PrepareLayer, Int4PacksRowsAndRoundTrips) {
  // Odd k so the per-row pad nibble is exercised.
  const auto wc = make_codes(4, 0.5F, {-8, 7, 0, 3, -1, 5});
  const PreparedLayer prep = prepare_layer(wc, 2, 3);
  EXPECT_EQ(prep.precision, Precision::kInt4);
  EXPECT_TRUE(prep.w_s8.empty());
  ASSERT_EQ(static_cast<std::int64_t>(prep.w_s4.size()),
            2 * clado::quant::packed_s4_stride(3));
  for (std::int64_t r = 0; r < 2; ++r) {
    std::int8_t row[3];
    clado::quant::unpack_s4(prep.w_s4.data() + r * clado::quant::packed_s4_stride(3), 3, row);
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(row[j], wc.codes[static_cast<std::size_t>(r * 3 + j)]);
    }
  }
}

TEST(PrepareLayer, BitsZeroStaysFp32AndSizeMismatchThrows) {
  clado::quant::WeightCodes fp;
  fp.bits = 0;
  const PreparedLayer prep = prepare_layer(fp, 4, 9);
  EXPECT_EQ(prep.precision, Precision::kFp32);
  EXPECT_TRUE(prep.w_s8.empty());
  EXPECT_TRUE(prep.w_s4.empty());

  const auto wc = make_codes(8, 1.0F, {1, 2, 3});
  EXPECT_THROW(prepare_layer(wc, 2, 2), std::invalid_argument);
}

TEST(Backends, IntegerGemmRunsTheKernelOfItsPrecision) {
  Rng rng(5);
  const std::int64_t rows = 3, n = 4, k = 17;
  std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
  std::vector<std::int8_t> codes4(static_cast<std::size_t>(n * k));
  std::vector<std::int8_t> in(static_cast<std::size_t>(rows * k));
  for (auto& c : codes) c = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
  for (auto& c : codes4) c = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(16)) - 8);
  for (auto& c : in) c = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);

  std::vector<std::int32_t> got(static_cast<std::size_t>(rows * n));
  std::vector<std::int32_t> want(static_cast<std::size_t>(rows * n));
  const PreparedLayer p8 = prepare_layer(make_codes(8, 1.0F, codes), n, k);
  integer_gemm(p8, rows, in.data(), /*za=*/-3, got.data());
  clado::quant::gemm_s8s8_s32(rows, n, k, in.data(), -3, codes.data(), 0, want.data());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "int8 " << i;

  const PreparedLayer p4 = prepare_layer(make_codes(4, 1.0F, codes4), n, k);
  integer_gemm(p4, rows, in.data(), /*za=*/-3, got.data());
  clado::quant::gemm_s8s4_s32(rows, n, k, in.data(), -3, p4.w_s4.data(), 0, want.data());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "int4 " << i;
}

// ---- latency table ----------------------------------------------------------

TEST(LatencyTable, SaveLoadRoundTripAndValidation) {
  clado::core::LatencyTable table;
  table.ms = {{4.0, 1.5, 0.75}, {8.0, 3.25, 1.125}};
  const std::string path = ::testing::TempDir() + "clado_latency_rt.bin";
  clado::core::save_latency_table(table, path);
  const clado::core::LatencyTable back = clado::core::load_latency_table(path);
  ASSERT_EQ(back.layers(), 2u);
  for (std::size_t g = 0; g < 2; ++g) {
    for (int p = 0; p < clado::quant::kNumPrecisions; ++p) {
      EXPECT_EQ(back.ms[g][static_cast<std::size_t>(p)], table.ms[g][static_cast<std::size_t>(p)]);
    }
  }
  EXPECT_EQ(back.at(1, Precision::kInt4), 1.125);
  EXPECT_THROW(clado::core::load_latency_table(path + ".does-not-exist"), std::runtime_error);

  // Every saved table loads: save refuses what load would reject.
  for (const double bad : {std::numeric_limits<double>::infinity(), -1.0,
                           std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    clado::core::LatencyTable t = table;
    t.ms[1][2] = bad;
    EXPECT_THROW(clado::core::save_latency_table(t, path), std::invalid_argument) << bad;
  }
  clado::core::LatencyTable ragged = table;
  ragged.ms[0].pop_back();
  EXPECT_THROW(clado::core::save_latency_table(ragged, path), std::invalid_argument);

  // And load rejects an artifact holding such entries (written here as a
  // raw state dict), naming the file.
  for (const float bad : {std::numeric_limits<float>::infinity(), -1.0F}) {
    clado::tensor::StateDict dict;
    dict["latency_ms"] = Tensor({1, 3}, std::vector<float>{1.0F, bad, 0.5F});
    clado::tensor::save_state_dict(dict, path);
    try {
      clado::core::load_latency_table(path);
      ADD_FAILURE() << "loaded a latency of " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

// ---- pipeline: milliseconds as the knapsack column --------------------------

TEST(AssignUnderLatency, PipelineSolvesAgainstMeasuredMilliseconds) {
  Rng rng(29);
  Model model = clado::testing::make_tiny_model(rng);
  ASSERT_EQ(model.candidate_bits, (std::vector<int>{2, 8}));
  Rng data_rng(31);
  clado::core::MpqPipeline pipeline(model, clado::testing::make_noise_batch(data_rng));

  // 4 layers, columns {fp32, int8, int4}: 2-bit candidates run on int4
  // (1 ms), 8-bit on int8 (3 ms); the fp32 column is never charged.
  clado::core::LatencyTable table;
  table.ms.assign(4, {100.0, 3.0, 1.0});
  const auto a =
      pipeline.assign_under_latency(clado::core::Algorithm::kClado, table, /*budget_ms=*/8.0);
  ASSERT_EQ(a.bits.size(), 4u);
  EXPECT_LE(a.latency_ms, 8.0 + 1e-9);
  EXPECT_GT(a.latency_ms, 0.0);
  EXPECT_EQ(a.budget_ms, 8.0);
  EXPECT_EQ(a.target_bytes, 0.0);  // latency-budgeted, not size-budgeted
  EXPECT_GT(a.bytes, 0.0);         // realized size still reported
  double realized = 0.0;
  for (std::size_t g = 0; g < 4; ++g) realized += a.bits[g] == 8 ? 3.0 : 1.0;
  EXPECT_DOUBLE_EQ(realized, a.latency_ms);

  EXPECT_THROW(pipeline.assign_under_latency(clado::core::Algorithm::kClado,
                                             clado::core::LatencyTable{{{100.0, 3.0, 1.0}}},
                                             8.0),
               std::invalid_argument);
  clado::core::LatencyTable ragged = table;
  ragged.ms[2] = {100.0, 3.0};  // no int4 column for the 2-bit candidate
  EXPECT_THROW(pipeline.assign_under_latency(clado::core::Algorithm::kClado, ragged, 8.0),
               std::out_of_range);
}

TEST(AssignUnderLatency, BudgetConstrainsTheLatencyColumn) {
  Rng rng(29);
  Model model = clado::testing::make_tiny_model(rng);
  Rng data_rng(31);
  clado::core::MpqPipeline pipeline(model, clado::testing::make_noise_batch(data_rng));
  clado::core::LatencyTable table;
  table.ms.assign(4, {100.0, 3.0, 1.0});

  // A binding budget (the all-int4 total) admits only the cheap choices...
  const auto tight = pipeline.assign_under_latency(clado::core::Algorithm::kClado, table, 4.0);
  EXPECT_EQ(tight.bits, (std::vector<int>{2, 2, 2, 2}));
  EXPECT_DOUBLE_EQ(tight.latency_ms, 4.0);

  // ...while a wide one admits the better objective: the choice of a size
  // solve whose budget binds nothing.
  const auto wide = pipeline.assign_under_latency(clado::core::Algorithm::kClado, table, 100.0);
  const auto unbound = pipeline.assign(clado::core::Algorithm::kClado, 1e12);
  EXPECT_EQ(wide.choice, unbound.choice);
  EXPECT_GT(wide.latency_ms, 4.0);
  EXPECT_LT(wide.predicted, tight.predicted);

  // Below the cheapest choices nothing fits.
  EXPECT_THROW(pipeline.assign_under_latency(clado::core::Algorithm::kClado, table, 3.0),
               std::runtime_error);
}

// ---- engine: mode and error paths -------------------------------------------

/// A zoo model calibrated on one random batch, so its act fake-quants are
/// live and the compiled plan has `fq8` buffers.
Model make_calibrated(const std::string& name) {
  Rng rng(202);
  Model model = clado::models::build_by_name(name, rng, /*num_classes=*/10);
  clado::data::Batch calib;
  Rng data_rng(303);
  calib.images = Tensor::randn({4, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
  return model;
}

Model make_calibrated_resnet_a() { return make_calibrated("resnet_a"); }

/// Alternating 4/8-bit assignment — non-uniform, both integer backends live.
std::vector<int> mixed_bits(std::size_t layers) {
  std::vector<int> bits(layers);
  for (std::size_t i = 0; i < layers; ++i) bits[i] = (i % 2 == 0) ? 4 : 8;
  return bits;
}

EngineSpec backend_spec(std::vector<int> bits, std::int64_t max_batch, int replicas = 1) {
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.label = "backend";
  spec.max_batch = max_batch;
  spec.replicas = replicas;
  spec.backend = BackendMode::kOn;
  return spec;
}

TEST(BackendEngine, DefaultsOff) {
  Rng rng(43);
  Model model = clado::testing::make_tiny_model(rng);
  EngineSpec spec;
  spec.bits = std::vector<int>(model.quant_layers.size(), 8);
  Engine engine(std::move(model), std::move(spec));
  EXPECT_FALSE(engine.backend_enabled());
  EXPECT_TRUE(engine.prepared_layers().empty());
  EXPECT_EQ(engine.plan(0)->backend_steps(), 0u);
}

// ---- engine: mixed-precision execution (the acceptance check) ---------------

TEST(BackendEngine, MixedAssignmentRunsEveryQuantLayerOnItsBackend) {
  Model model = make_calibrated_resnet_a();
  const std::size_t layers = model.quant_layers.size();
  const std::vector<int> bits = mixed_bits(layers);
  Engine engine(std::move(model), backend_spec(bits, 4));

  ASSERT_TRUE(engine.backend_enabled());
  const auto& prepared = engine.prepared_layers();
  ASSERT_EQ(prepared.size(), layers);

  // resnet_a compiles fully (no fallbacks, no grouped convs), so a quant
  // layer runs integer exactly when its input buffer is an 8-bit
  // fake-quant output.
  const clado::serve::CompiledPlan* plan = engine.plan(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->fallback_steps(), 0u);
  std::vector<bool> runs_integer(layers, false);
  std::size_t quant_steps = 0;
  std::size_t fq8_inputs = 0;
  for (const auto& step : plan->steps()) {
    if (step.kind != clado::serve::StepKind::kConv &&
        step.kind != clado::serve::StepKind::kLinear) {
      continue;
    }
    ++quant_steps;
    const bool fq8 = plan->buffers()[static_cast<std::size_t>(step.in)].fq8;
    fq8_inputs += fq8 ? 1 : 0;
    EXPECT_EQ(step.prepared != nullptr, fq8) << step.label << " " << quant_steps;
    if (step.prepared != nullptr) {
      runs_integer[static_cast<std::size_t>(step.prepared - prepared.data())] = true;
    }
  }
  EXPECT_EQ(quant_steps, layers);
  EXPECT_EQ(plan->backend_steps(), fq8_inputs);
  // Each block's first conv and the two downsample convs read a block
  // output's fake-quant; the stem (raw image), each block's second conv
  // (after a ReLU) and the fc (after the pool) do not.
  EXPECT_EQ(fq8_inputs, 8u);

  // The integer layers keep their codes at the assigned precision; every
  // other entry is reset to fp32 and holds none.
  for (std::size_t i = 0; i < layers; ++i) {
    if (runs_integer[i]) {
      EXPECT_EQ(prepared[i].precision, precision_for_bits(bits[i])) << "layer " << i;
      const bool int4 = prepared[i].precision == Precision::kInt4;
      EXPECT_EQ(prepared[i].w_s4.empty(), !int4) << "layer " << i;
      EXPECT_EQ(prepared[i].w_s8.empty(), int4) << "layer " << i;
    } else {
      EXPECT_EQ(prepared[i].precision, Precision::kFp32) << "layer " << i;
      EXPECT_TRUE(prepared[i].w_s8.empty() && prepared[i].w_s4.empty()) << "layer " << i;
    }
  }

  // Per-layer backend tags in the plan dump: both integer precisions and
  // fp32 are live, and there is no input-quantization field.
  const std::string dump = plan->dump();
  EXPECT_NE(dump.find("backend=int4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("backend=int8"), std::string::npos) << dump;
  EXPECT_NE(dump.find("backend=fp32"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("in="), std::string::npos) << dump;

  // And it actually infers.
  Rng rng(601);
  const auto& s = engine.sample_shape();
  const Tensor batch = Tensor::randn({3, s[0], s[1], s[2]}, rng);
  const Tensor logits = engine.infer(batch);
  ASSERT_EQ(logits.shape(), (clado::tensor::Shape{3, 10}));
  for (std::int64_t i = 0; i < logits.numel(); ++i) ASSERT_TRUE(std::isfinite(logits[i]));
}

TEST(BackendEngine, LogitsTrackFakeQuantSimulationWithinTolerance) {
  // The integer steps read inputs already on an 8-bit fake-quant grid and
  // quantize them losslessly, and every other layer runs the fake-quant
  // engine's own fp32 GEMM, so the two engines compute the same function.
  // Only float rounding may differ: the integer path sums exactly in int32
  // and applies one rescale, where the fp32 GEMM rounds its partial sums.
  // On resnet_a at mixed 4/8 the divergence measures 0 at both kernel
  // levels; 0.35 on O(1) logits still catches a wrong backend, scale or
  // zero point, which shifts logits by whole units.
  Model model = make_calibrated_resnet_a();
  Model twin = model.clone();
  const std::vector<int> bits = mixed_bits(model.quant_layers.size());

  Engine integer(std::move(model), backend_spec(bits, 4));
  EngineSpec fake_spec;
  fake_spec.bits = bits;
  fake_spec.label = "fake-quant";
  fake_spec.max_batch = 4;
  fake_spec.backend = BackendMode::kOff;
  Engine fake(std::move(twin), std::move(fake_spec));

  Rng rng(607);
  const auto& s = integer.sample_shape();
  const Tensor batch = Tensor::randn({4, s[0], s[1], s[2]}, rng);
  const Tensor a = integer.infer(batch);
  const Tensor b = fake.infer(batch);
  ASSERT_EQ(a.shape(), b.shape());
  float max_diff = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 0.35F) << "backend vs fake-quant logit divergence";
}

TEST(BackendEngine, ChunksOversizedBatchesThroughThePlan) {
  // Batches beyond max_batch chunk through the plan. No step reads across
  // samples, so infer(6) must equal the concatenation of infer on the same
  // {2, 2, 2} partition.
  Model model = make_calibrated_resnet_a();
  std::vector<int> bits = mixed_bits(model.quant_layers.size());
  Engine engine(std::move(model), backend_spec(std::move(bits), 2));

  Rng rng(613);
  const auto& s = engine.sample_shape();
  const std::int64_t per = s[0] * s[1] * s[2];
  const Tensor batch = Tensor::randn({6, s[0], s[1], s[2]}, rng);
  const Tensor whole = engine.infer(batch);
  ASSERT_EQ(whole.shape(), (clado::tensor::Shape{6, 10}));

  for (std::int64_t chunk = 0; chunk < 3; ++chunk) {
    Tensor part({2, s[0], s[1], s[2]});
    std::memcpy(part.data(), batch.data() + chunk * 2 * per,
                sizeof(float) * static_cast<std::size_t>(2 * per));
    const Tensor logits = engine.infer(part);
    for (std::int64_t r = 0; r < 2; ++r) {
      for (std::int64_t c = 0; c < 10; ++c) {
        ASSERT_EQ(whole[(chunk * 2 + r) * 10 + c], logits[r * 10 + c])
            << "chunk " << chunk << " row " << r << " logit " << c;
      }
    }
  }
}

TEST(BackendEngine, EverySampleIsBitIdenticalToSoloInferenceWhateverItsCoBatch) {
  // A request's answer must not depend on who shares its batch: no step
  // may derive anything (an input range, a qparam) from the other samples.
  // Each CNN zoo model at mixed 4/8 on two replicas, driven from two
  // threads at once with random co-batches at every chunk size, each
  // including a neighbour scaled 20x, must reproduce solo inference bit for
  // bit.
  constexpr std::int64_t kMaxBatch = 4;
  constexpr int kBase = 4;
  constexpr int kTrials = 3;
  for (const std::string name : {"resnet_a", "resnet_b", "mobilenet_v3_mini", "regnet_mini"}) {
    SCOPED_TRACE(name);
    Model model = make_calibrated(name);
    const std::vector<int> bits = mixed_bits(model.quant_layers.size());
    Engine engine(std::move(model), backend_spec(bits, kMaxBatch, /*replicas=*/2));
    const auto& s = engine.sample_shape();
    const std::int64_t per = s[0] * s[1] * s[2];
    const std::int64_t classes = engine.num_classes();

    // Pool: kBase ordinary samples, then the same samples scaled by 20.
    Rng rng(617);
    Tensor pool = Tensor::randn({2 * kBase, s[0], s[1], s[2]}, rng);
    for (std::int64_t i = 0; i < kBase * per; ++i) pool[kBase * per + i] = 20.0F * pool[i];
    const auto stack = [&](const std::vector<std::int64_t>& members) {
      Tensor batch({static_cast<std::int64_t>(members.size()), s[0], s[1], s[2]});
      for (std::size_t j = 0; j < members.size(); ++j) {
        std::memcpy(batch.data() + static_cast<std::int64_t>(j) * per,
                    pool.data() + members[j] * per, sizeof(float) * static_cast<std::size_t>(per));
      }
      return batch;
    };
    std::vector<Tensor> solo;
    for (std::int64_t p = 0; p < 2 * kBase; ++p) solo.push_back(engine.infer(stack({p})));

    std::int64_t mismatches[2] = {0, 0};
    std::int64_t checked[2] = {0, 0};
    const auto drive = [&](int replica) {
      Rng pick(static_cast<std::uint64_t>(631 + replica));
      for (std::int64_t chunk = 1; chunk <= kMaxBatch; ++chunk) {
        for (int trial = 0; trial < kTrials; ++trial) {
          // Slot 0 is always an outlier, so every co-batch of two or more
          // samples pairs ordinary traffic with a 20x neighbour.
          const auto draw = [&](std::uint64_t n) {
            return static_cast<std::int64_t>(pick.uniform_int(n));
          };
          std::vector<std::int64_t> members = {kBase + draw(kBase)};
          while (static_cast<std::int64_t>(members.size()) < chunk) {
            members.push_back(draw(2 * kBase));
          }
          const Tensor logits = engine.infer(stack(members), replica);
          for (std::size_t j = 0; j < members.size(); ++j) {
            const Tensor& want = solo[static_cast<std::size_t>(members[j])];
            for (std::int64_t c = 0; c < classes; ++c) {
              const std::int64_t row = static_cast<std::int64_t>(j) * classes;
              mismatches[replica] += logits[row + c] != want[c] ? 1 : 0;
            }
            ++checked[replica];
          }
        }
      }
    };
    std::thread other(drive, 1);
    drive(0);
    other.join();
    EXPECT_EQ(checked[0], checked[1]);
    EXPECT_GT(checked[0], 0);
    EXPECT_EQ(mismatches[0], 0) << "replica 0 logits that differ from solo inference";
    EXPECT_EQ(mismatches[1], 0) << "replica 1 logits that differ from solo inference";
  }
}

// ---- engine: bit-identity with the reference integer path -------------------

/// Flatten -> 8-bit fake quant -> Linear: the linear's input buffer is
/// defined by a fake-quant step, so the linear runs integer on that grid and
/// the whole computation is an exact replay of quant::qlinear.
Model make_fq_linear_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "fq_linear";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {4, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = 5;
  m.image_size = 8;
  m.net->emplace_named<Flatten>("flatten");
  auto* aq = m.net->emplace_named<clado::quant::ActFakeQuant>("aq_in", 8);
  m.act_quants.push_back(aq);
  m.net->emplace_named<Linear>("fc", 3 * 8 * 8, 5)->init(rng);
  m.finalize();
  return m;
}

/// 8-bit fake quant -> 3x3 conv on a 3x3 image (pad 0): the conv output is
/// spatially 1x1, so GlobalAvgPool is the identity and engine logits are
/// exactly the conv's integer output.
Model make_fq_conv_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "fq_conv";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {4, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = 5;
  m.image_size = 3;
  auto* aq = m.net->emplace_named<clado::quant::ActFakeQuant>("aq_in", 8);
  m.act_quants.push_back(aq);
  m.net->emplace_named<Conv2d>("conv", 3, 5, 3, /*stride=*/1, /*pad=*/0)->init(rng);
  m.net->emplace_named<GlobalAvgPool>("gap");
  m.finalize();
  return m;
}

void calibrate(Model& model, std::uint64_t seed, std::int64_t n = 8) {
  clado::data::Batch calib;
  Rng rng(seed);
  calib.images = Tensor::randn({n, model.channels, model.image_size, model.image_size}, rng);
  for (std::int64_t i = 0; i < n; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
}

/// Static input-quantization parameters of a frozen 8-bit ActFakeQuant:
/// same grid shifted from u8 onto s8 (the backend's step.in_zp).
clado::quant::QParams static_qparams(const clado::quant::ActFakeQuant& aq) {
  clado::quant::QParams p;
  p.scale = aq.scale();
  p.zero_point = static_cast<std::int32_t>(std::nearbyint(aq.zero_point())) - 128;
  return p;
}

TEST(BackendEngine, UniformInt8LinearIsBitIdenticalToQlinear) {
  Rng rng(71);
  Model model = make_fq_linear_model(rng);
  calibrate(model, 73);
  Model twin = model.clone();
  Engine engine(std::move(model), backend_spec({8}, 4));
  ASSERT_EQ(engine.plan(0)->backend_steps(), 1u);
  const std::string dump = engine.plan(0)->dump();
  EXPECT_NE(dump.find("backend=int8"), std::string::npos) << dump;

  Rng data_rng(79);
  const Tensor batch = Tensor::randn({3, 3, 8, 8}, data_rng);
  const Tensor got = engine.infer(batch);

  // Reference: fake-quant the flattened input, quantize it on the same
  // grid, and run the existing integer linear.
  twin.net->set_training(false);
  auto* aq = twin.act_quants.at(0);
  const Tensor flat = batch.reshape({3, 192});
  const Tensor fq_out = aq->forward(flat);
  const clado::quant::QTensor qx = clado::quant::quantize_int8(fq_out, static_qparams(*aq));

  const auto& prep = engine.prepared_layers().at(0);
  ASSERT_EQ(prep.precision, Precision::kInt8);
  clado::quant::QTensor qw;
  qw.shape = {5, 192};
  qw.data = prep.w_s8;
  qw.scale = prep.w_scale;
  qw.zero_point = 0;
  auto* fc = dynamic_cast<clado::nn::Linear*>(twin.quant_layers.at(0).layer);
  ASSERT_NE(fc, nullptr);
  const Tensor want = clado::quant::qlinear(qx, qw, fc->bias_data());

  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

TEST(BackendEngine, UniformInt8ConvIsBitIdenticalToQconv2d) {
  Rng rng(83);
  Model model = make_fq_conv_model(rng);
  calibrate(model, 89);
  Model twin = model.clone();
  Engine engine(std::move(model), backend_spec({8}, 4));
  ASSERT_EQ(engine.plan(0)->backend_steps(), 1u);

  Rng data_rng(97);
  const Tensor batch = Tensor::randn({4, 3, 3, 3}, data_rng);
  const Tensor got = engine.infer(batch);

  twin.net->set_training(false);
  auto* aq = twin.act_quants.at(0);
  const Tensor fq_out = aq->forward(batch);
  const clado::quant::QTensor qx = clado::quant::quantize_int8(fq_out, static_qparams(*aq));

  const auto& prep = engine.prepared_layers().at(0);
  ASSERT_EQ(prep.precision, Precision::kInt8);
  clado::quant::QTensor qw;
  qw.shape = {5, 3, 3, 3};
  qw.data = prep.w_s8;
  qw.scale = prep.w_scale;
  qw.zero_point = 0;
  auto* conv = dynamic_cast<clado::nn::Conv2d*>(twin.quant_layers.at(0).layer);
  ASSERT_NE(conv, nullptr);
  const Tensor want =
      clado::quant::qconv2d(qx, qw, conv->bias_data(), 1, 0).reshape({4, 5});

  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

TEST(BackendEngine, Int4ConvIsBitIdenticalToThePackedKernelPath) {
  Rng rng(101);
  Model model = make_fq_conv_model(rng);
  calibrate(model, 103);
  Model twin = model.clone();
  Engine engine(std::move(model), backend_spec({4}, 4));
  ASSERT_EQ(engine.plan(0)->backend_steps(), 1u);
  EXPECT_NE(engine.plan(0)->dump().find("backend=int4"), std::string::npos);

  Rng data_rng(107);
  const Tensor batch = Tensor::randn({4, 3, 3, 3}, data_rng);
  const Tensor got = engine.infer(batch);

  twin.net->set_training(false);
  auto* aq = twin.act_quants.at(0);
  const Tensor fq_out = aq->forward(batch);
  const clado::quant::QParams qp = static_qparams(*aq);
  const clado::quant::QTensor qx = clado::quant::quantize_int8(fq_out, qp);

  const auto& prep = engine.prepared_layers().at(0);
  ASSERT_EQ(prep.precision, Precision::kInt4);
  auto* conv = dynamic_cast<clado::nn::Conv2d*>(twin.quant_layers.at(0).layer);
  ASSERT_NE(conv, nullptr);

  // Replay the backend's conv by hand: per-sample im2col at the static zero
  // point, the packed s4 GEMM, and the shared requant epilogue.
  const std::int64_t patch = 3 * 3 * 3;  // C * k * k; one output position
  Tensor want({4, 5});
  std::vector<std::int8_t> cols(static_cast<std::size_t>(patch));
  std::vector<std::int32_t> acc(5);
  for (std::int64_t sample = 0; sample < 4; ++sample) {
    clado::quant::im2col_s8(qx.data.data() + sample * patch, 3, 3, 3, /*kernel=*/3,
                            /*stride=*/1, /*pad=*/0, /*oh=*/1, /*ow=*/1, qp.zero_point,
                            cols.data());
    clado::quant::gemm_s8s4_s32(1, 5, patch, cols.data(), qp.zero_point, prep.w_s4.data(), 0,
                                acc.data());
    clado::quant::requant_scatter(acc.data(), /*positions=*/1, /*out_c=*/5,
                                  qp.scale * prep.w_scale, conv->bias_data(),
                                  want.data() + sample * 5);
  }

  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

}  // namespace
