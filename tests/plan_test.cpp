// clado::serve::CompiledPlan coverage: bit-identity with the frozen eager
// network (the oracle) across the whole model zoo (including
// activation-quantized engines), grouped / strided / unpadded conv
// geometry and chunked oversized batches, replica plans sharing one module
// tree, the liveness property of the arena planner (live buffers never
// share storage), and zero steady-state heap allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/serve/engine.h"
#include "clado/serve/plan.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"
#include "test_models_util.h"

namespace {

using clado::models::Model;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::PlanBuffer;
using clado::tensor::Rng;
using clado::tensor::Tensor;

/// An engine and its oracle: the same model frozen by the Engine and by
/// freeze_like_engine from bit-identical clones.
struct EngineAndOracle {
  std::unique_ptr<Engine> engine;
  Model oracle;
};

EngineAndOracle freeze_both(Model model, std::vector<int> bits, std::int64_t max_batch,
                          int replicas = 1) {
  EngineAndOracle pair;
  pair.oracle = clado::testing::freeze_like_engine(model.clone(), bits);
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.max_batch = max_batch;
  spec.replicas = replicas;
  pair.engine = std::make_unique<Engine>(std::move(model), std::move(spec));
  return pair;
}

/// A calibrated zoo model with every layer at `bits_value`.
EngineAndOracle make_engines(const std::string& name, std::int64_t max_batch,
                             int bits_value = 8) {
  Rng rng(202);
  Model model = clado::models::build_by_name(name, rng, /*num_classes=*/10);

  clado::data::Batch calib;
  Rng data_rng(303);
  calib.images = Tensor::randn({4, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
  std::vector<int> bits(model.quant_layers.size(), bits_value);
  return freeze_both(std::move(model), std::move(bits), max_batch);
}

void expect_matches_oracle(EngineAndOracle& pair, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto& s = pair.engine->sample_shape();
  const Tensor batch = Tensor::randn({n, s[0], s[1], s[2]}, rng);
  const Tensor got = pair.engine->infer(batch);
  const Tensor want = pair.oracle.net->forward(batch);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "n=" << n << " logit " << i;
  }
}

TEST(CompiledPlan, MatchesFrozenOracleAcrossZoo) {
  for (const std::string& name : clado::models::model_names()) {
    SCOPED_TRACE(name);
    EngineAndOracle pair = make_engines(name, /*max_batch=*/4);
    expect_matches_oracle(pair, /*n=*/3, /*seed=*/500);
    expect_matches_oracle(pair, /*n=*/1, /*seed=*/501);
  }
}

TEST(CompiledPlan, CnnZooModelsCompileWithoutFallbacks) {
  for (const std::string name : {"resnet_a", "resnet_b"}) {
    SCOPED_TRACE(name);
    EngineAndOracle pair = make_engines(name, 2);
    EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u)
        << "the CNN path regressed into Module::forward staging";
  }
  // The transformer encoder is out of the compiler's vocabulary by design.
  EngineAndOracle vit = make_engines("vit_mini", 2);
  EXPECT_GT(vit.engine->plan(0)->fallback_steps(), 0u);
}

/// Stride > 1, pad = 0 and grouped convolutions all change the im2col
/// geometry; a planner bug here shows up as a shape throw or wrong logits.
Model make_geometry_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "geometry";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.num_classes = 6;
  m.image_size = 16;

  m.net->emplace_named<Conv2d>("stem", 3, 8, 3, /*stride=*/2, /*pad=*/0)->init(rng);
  m.net->emplace_named<Activation>("act1", Act::kRelu);
  m.net->emplace_named<Conv2d>("grouped", 8, 8, 3, 1, 1, /*groups=*/4)->init(rng);
  m.net->emplace_named<Activation>("act2", Act::kHardSwish);
  m.net->emplace_named<MaxPool2d>("pool", 2, 2);
  m.net->emplace_named<Conv2d>("proj", 8, 4, 1, 1, 0, 1, /*bias=*/false)->init(rng);
  m.net->emplace_named<GlobalAvgPool>("gap");
  m.net->emplace_named<Linear>("fc", 4, 6)->init(rng);
  m.finalize();
  return m;
}

EngineAndOracle make_geometry_pair(std::int64_t max_batch, int replicas = 1) {
  Rng rng(77);
  return freeze_both(make_geometry_model(rng), {}, max_batch, replicas);
}

TEST(CompiledPlan, MatchesOracleOnGroupedStridedUnpaddedConvs) {
  EngineAndOracle pair = make_geometry_pair(/*max_batch=*/5);
  EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u);
  expect_matches_oracle(pair, 5, 600);
  expect_matches_oracle(pair, 1, 601);
}

TEST(CompiledPlan, PredictMatchesBatchedInference) {
  EngineAndOracle pair = make_geometry_pair(4);
  Engine& engine = *pair.engine;
  Rng rng(55);
  for (int i = 0; i < 3; ++i) {
    const Tensor sample = Tensor::randn({3, 16, 16}, rng);
    Tensor one = sample;
    one.reshape_inplace({1, 3, 16, 16});
    const std::int64_t expected = pair.oracle.net->forward(one).argmax();
    EXPECT_EQ(engine.predict(sample), expected);
    EXPECT_EQ(engine.predict(one), expected);  // [1, C, H, W] accepted too
  }
  // A batch of more than one sample has no single top-1 class; argmax over
  // its flattened [N, classes] logits would return an index >= classes.
  EXPECT_THROW(engine.predict(Tensor::randn({2, 3, 16, 16}, rng)), std::invalid_argument);
  EXPECT_THROW(engine.predict(Tensor::randn({3, 8, 16}, rng)), std::invalid_argument);
  EXPECT_THROW(engine.predict(Tensor::randn({3, 16}, rng)), std::invalid_argument);
}

TEST(CompiledPlan, LiveArenaBuffersNeverOverlap) {
  for (const std::string name : {"resnet_a", "mobilenet_v3_mini"}) {
    SCOPED_TRACE(name);
    EngineAndOracle pair = make_engines(name, 3);
    const auto* plan = pair.engine->plan(0);
    const std::vector<PlanBuffer>& bufs = plan->buffers();
    ASSERT_GT(bufs.size(), 1u);
    for (const PlanBuffer& b : bufs) {
      EXPECT_GE(b.offset, 0);
      EXPECT_LE(b.offset + b.numel, plan->arena_numel());
    }
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      for (std::size_t j = i + 1; j < bufs.size(); ++j) {
        const PlanBuffer& a = bufs[i];
        const PlanBuffer& b = bufs[j];
        const bool live_overlap = a.def_step <= b.last_step && b.def_step <= a.last_step;
        if (!live_overlap) continue;
        const bool storage_disjoint =
            a.offset + a.numel <= b.offset || b.offset + b.numel <= a.offset;
        EXPECT_TRUE(storage_disjoint)
            << "buffers " << i << " and " << j << " are simultaneously live at overlapping "
            << "arena ranges [" << a.offset << ", " << a.offset + a.numel << ") and ["
            << b.offset << ", " << b.offset + b.numel << ")";
      }
    }
  }
}

TEST(CompiledPlan, SteadyStateRunsAreAllocationFree) {
  if (!clado::tensor::alloc_counting_enabled()) {
    GTEST_SKIP() << "tensor allocation counting is compiled out of this build "
                    "(Release without CLADO_ENABLE_CHECKS); the sanitizer CI job enforces this";
  }
  EngineAndOracle pair = make_geometry_pair(/*max_batch=*/4);
  Engine& engine = *pair.engine;
  Rng rng(88);
  const Tensor batch = Tensor::randn({4, 3, 16, 16}, rng);
  float* pin = engine.batch_buffer(0);
  ASSERT_NE(pin, nullptr);
  std::memcpy(pin, batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));

  Tensor out;
  for (int i = 0; i < 3; ++i) engine.infer_pinned(4, out, 0);  // warmup
  const std::int64_t before = clado::tensor::alloc_count();
  for (int i = 0; i < 50; ++i) engine.infer_pinned(4, out, 0);
  EXPECT_EQ(clado::tensor::alloc_count(), before)
      << "steady-state fused inference touched the heap";
}

TEST(CompiledPlan, ReplicaPlansShareOneNetworkAndAgree) {
  EngineAndOracle pair = make_geometry_pair(/*max_batch=*/2, /*replicas=*/2);
  Engine& engine = *pair.engine;
  const auto& steps0 = engine.plan(0)->steps();
  const auto& steps1 = engine.plan(1)->steps();
  ASSERT_EQ(steps0.size(), steps1.size());
  std::size_t convs = 0;
  for (std::size_t i = 0; i < steps0.size(); ++i) {
    EXPECT_EQ(steps0[i].conv, steps1[i].conv) << "step " << i << " reads a per-replica copy";
    convs += steps0[i].conv != nullptr ? 1 : 0;
  }
  EXPECT_EQ(convs, 3u);
  EXPECT_NE(engine.batch_buffer(0), engine.batch_buffer(1)) << "plans must not share an arena";

  Rng data_rng(131);
  const Tensor batch = Tensor::randn({2, 3, 16, 16}, data_rng);
  const Tensor want = pair.oracle.net->forward(batch);
  for (int r = 0; r < 2; ++r) {
    const Tensor got = engine.infer(batch, r);
    ASSERT_EQ(got.shape(), want.shape());
    for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_EQ(got[i], want[i]) << "replica " << r;
  }
}

/// Residual blocks whose main path (or shortcut) STARTS with an activation:
/// fusing that activation onto the step that produced the block input would
/// mutate the values the other branch still has to read.
Model make_preact_residual_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "preact_residual";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.num_classes = 5;
  m.image_size = 8;

  m.net->emplace_named<Conv2d>("stem", 3, 6, 3, 1, 1)->init(rng);
  auto pre_main = std::make_unique<Sequential>();
  pre_main->emplace_named<Activation>("preact", Act::kRelu);
  pre_main->emplace_named<Conv2d>("conv", 6, 6, 3, 1, 1)->init(rng);
  m.net->emplace_named<ResidualBlock>("preact_block", std::move(pre_main), nullptr,
                                      /*final_relu=*/false);

  auto id_main = std::make_unique<Sequential>();
  id_main->emplace_named<Identity>("id");
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace_named<Activation>("shortact", Act::kHardSwish);
  shortcut->emplace_named<Conv2d>("shortconv", 6, 6, 1, 1, 0)->init(rng);
  m.net->emplace_named<ResidualBlock>("act_shortcut_block", std::move(id_main),
                                      std::move(shortcut), /*final_relu=*/true);

  m.net->emplace_named<GlobalAvgPool>("gap");
  m.net->emplace_named<Linear>("fc", 6, 5)->init(rng);
  m.finalize();
  return m;
}

TEST(CompiledPlan, ActivationLeadingResidualBranchesMatchOracle) {
  Rng rng(161);
  EngineAndOracle pair = freeze_both(make_preact_residual_model(rng), {}, /*max_batch=*/3);

  // Both branch-leading activations must survive as standalone steps; fusing
  // either in place would corrupt the other branch's input.
  std::size_t standalone_acts = 0;
  for (const auto& step : pair.engine->plan(0)->steps()) {
    standalone_acts += step.kind == clado::serve::StepKind::kAct ? 1 : 0;
  }
  EXPECT_EQ(standalone_acts, 2u);
  EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u);
  expect_matches_oracle(pair, 3, 700);
  expect_matches_oracle(pair, 1, 701);
}

TEST(CompiledPlan, SEBlockWithWeightTransformFallsBack) {
  using namespace clado::nn;
  Rng rng(171);
  Sequential net;
  net.emplace_named<Conv2d>("stem", 3, 8, 3, 1, 1)->init(rng);
  net.emplace_named<SEBlock>("se", 8, 4)->init(rng);
  net.emplace_named<GlobalAvgPool>("gap");
  net.emplace_named<Linear>("fc", 8, 4)->init(rng);

  // Leave a QAT-style transform on the SE's inner linears; the fused SE step
  // reads raw weights, so the plan must stage the block through forward().
  std::vector<QuantLayerRef> layers;
  net.collect_quant_layers("", layers);
  std::size_t transformed = 0;
  for (auto& ref : layers) {
    if (ref.name.find("se.fc") == std::string::npos) continue;
    ref.layer->set_weight_transform([](const Tensor& w) { return w * 0.5F; });
    ++transformed;
  }
  ASSERT_EQ(transformed, 2u);

  net.set_inference(true);
  clado::serve::CompiledPlan plan(net, {3, 8, 8}, /*max_batch=*/2);
  EXPECT_GE(plan.fallback_steps(), 1u);

  Rng data_rng(172);
  const Tensor batch = Tensor::randn({2, 3, 8, 8}, data_rng);
  std::memcpy(plan.input(), batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));
  Tensor fused_out;
  plan.run(2, fused_out);
  const Tensor eager_out = net.forward(batch);
  ASSERT_EQ(fused_out.shape(), eager_out.shape());
  for (std::int64_t i = 0; i < fused_out.numel(); ++i) EXPECT_EQ(fused_out[i], eager_out[i]);
}

TEST(CompiledPlan, ResidualBranchShapeMismatchThrowsAtCompile) {
  using namespace clado::nn;
  Rng rng(181);
  Sequential net;
  net.emplace_named<Conv2d>("stem", 3, 4, 3, 1, 1)->init(rng);
  auto main = std::make_unique<Sequential>();
  // stride 2 halves the spatial dims, so the identity add cannot line up.
  main->emplace_named<Conv2d>("conv", 4, 4, 3, 2, 1)->init(rng);
  net.emplace_named<ResidualBlock>("bad_block", std::move(main), nullptr);
  net.set_inference(true);
  EXPECT_THROW(clado::serve::CompiledPlan(net, {3, 8, 8}, 1), std::invalid_argument);
}

TEST(CompiledPlan, OversizedBatchChunksThroughThePlan) {
  // 5 samples through a 2-sample arena: chunks of 2, 2 and a partial 1.
  EngineAndOracle pair = make_geometry_pair(/*max_batch=*/2);
  expect_matches_oracle(pair, 5, 141);
  // The zoo's transformer runs its fallback steps chunk by chunk too.
  EngineAndOracle vit = make_engines("vit_mini", /*max_batch=*/2);
  expect_matches_oracle(vit, 3, 142);
}

}  // namespace
