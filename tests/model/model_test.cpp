// Model tests: layer gradient checks against finite differences, model
// plumbing, and optimizers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "model/gat_layer.h"
#include "model/gnn_model.h"
#include "model/optimizer.h"
#include "model/sage_layer.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace apt {
namespace {

// dst0 <- {0, 1}; dst1 <- {1, 2}; 2 dst, 3 src (dst prefix rows 0..1).
struct TinyBlock {
  std::vector<std::int64_t> indptr{0, 2, 4};
  std::vector<std::int64_t> col{0, 1, 1, 2};
  CsrView csr() const { return {indptr, col}; }
  std::int64_t num_dst = 2;
  std::int64_t num_src = 3;
};

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

double Inner(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += a.data()[i] * b.data()[i];
  return acc;
}

/// Central-difference check of d<out, gy>/d param[idx] for a layer.
template <typename LayerT>
void CheckParamGrad(LayerT& layer, Param& param, const TinyBlock& blk,
                    const Tensor& input, const Tensor& gy, float tol) {
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  for (Param* p : [&] {
         std::vector<Param*> ps;
         layer.CollectParams(ps);
         return ps;
       }()) {
    p->ZeroGrad();
  }
  layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, /*input_grad=*/true);
  const float eps = 1e-2f;
  Rng pick(31);
  for (int trial = 0; trial < 6; ++trial) {
    const auto idx =
        static_cast<std::int64_t>(pick.NextBelow(static_cast<std::uint64_t>(param.value.numel())));
    const float orig = param.value.data()[idx];
    param.value.data()[idx] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    param.value.data()[idx] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    param.value.data()[idx] = orig;
    const double fd = (Inner(op, gy) - Inner(om, gy)) / (2 * eps);
    EXPECT_NEAR(param.grad.data()[idx], fd, tol)
        << param.name << " index " << idx;
  }
}

/// Parameter-gradient bit patterns after one Backward with or without the
/// input gradient (GDP and DNP skip it on layer 0; the trained bits must
/// not notice).
std::vector<std::vector<std::uint32_t>> ParamGradBits(GnnLayer& layer, const TinyBlock& blk,
                                                      const Tensor& input, const Tensor& gy,
                                                      bool input_grad) {
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  std::vector<Param*> params;
  layer.CollectParams(params);
  for (Param* p : params) p->ZeroGrad();
  const Tensor gin = layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, input_grad);
  EXPECT_EQ(gin.rows(), input_grad ? input.rows() : 0);
  std::vector<std::vector<std::uint32_t>> bits;
  for (const Param* p : params) {
    auto& b = bits.emplace_back();
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      b.push_back(std::bit_cast<std::uint32_t>(p->grad.data()[i]));
    }
  }
  return bits;
}

TEST(SageLayerTest, ForwardMatchesManual) {
  Rng rng(1);
  SageLayer layer(2, 2, rng);
  // Identity-ish weights for a hand check.
  layer.w_self().value = Tensor(2, 2, {1, 0, 0, 1});
  layer.w_neigh().value = Tensor(2, 2, {2, 0, 0, 2});
  layer.bias().value = Tensor(1, 2, {0.5f, -0.5f});
  TinyBlock blk;
  Tensor input(3, 2, {1, 2, 3, 4, 5, 6});
  const Tensor out = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  // dst0: self (1,2) + 2*mean((1,2),(3,4)) + bias = (1,2)+(4,6)+(0.5,-0.5)
  EXPECT_FLOAT_EQ(out(0, 0), 5.5f);
  EXPECT_FLOAT_EQ(out(0, 1), 7.5f);
  // dst1: self (3,4) + 2*mean((3,4),(5,6)) + bias = (3,4)+(8,10)+(0.5,-0.5)
  EXPECT_FLOAT_EQ(out(1, 0), 11.5f);
  EXPECT_FLOAT_EQ(out(1, 1), 13.5f);
}

TEST(SageLayerTest, ParamGradsMatchFiniteDifference) {
  Rng rng(2);
  SageLayer layer(3, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 4);
  const Tensor gy = RandTensor(2, 2, 5);
  CheckParamGrad(layer, layer.w_self(), blk, input, gy, 5e-3f);
  CheckParamGrad(layer, layer.w_neigh(), blk, input, gy, 5e-3f);
  CheckParamGrad(layer, layer.bias(), blk, input, gy, 5e-3f);
}

TEST(SageLayerTest, InputGradMatchesFiniteDifference) {
  Rng rng(3);
  SageLayer layer(3, 2, rng);
  TinyBlock blk;
  Tensor input = RandTensor(3, 3, 6);
  const Tensor gy = RandTensor(2, 2, 7);
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  const Tensor gin =
      layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, /*input_grad=*/true);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig;
    EXPECT_NEAR(gin.data()[i], (Inner(op, gy) - Inner(om, gy)) / (2 * eps), 5e-3f);
  }
}

TEST(SageLayerTest, SkippingInputGradLeavesParamGradsBitIdentical) {
  Rng rng(40);
  SageLayer layer(5, 4, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 5, 41);
  const Tensor gy = RandTensor(2, 4, 42);
  EXPECT_EQ(ParamGradBits(layer, blk, input, gy, true),
            ParamGradBits(layer, blk, input, gy, false));
}

TEST(GatLayerTest, OutputShapeConcatenatesHeads) {
  Rng rng(8);
  GatLayer layer(4, 3, 2, rng);
  EXPECT_EQ(layer.out_dim(), 6);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 4, 9);
  const Tensor out = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 6);
}

TEST(GatLayerTest, ParamGradsMatchFiniteDifference) {
  Rng rng(10);
  GatLayer layer(3, 2, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 11);
  const Tensor gy = RandTensor(2, 4, 12);
  std::vector<Param*> params;
  layer.CollectParams(params);
  for (Param* p : params) {
    CheckParamGrad(layer, *p, blk, input, gy, 1e-2f);
  }
}

TEST(GatLayerTest, InputGradMatchesFiniteDifference) {
  Rng rng(13);
  GatLayer layer(3, 2, 1, rng);
  TinyBlock blk;
  Tensor input = RandTensor(3, 3, 14);
  const Tensor gy = RandTensor(2, 2, 15);
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  const Tensor gin =
      layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, /*input_grad=*/true);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig;
    EXPECT_NEAR(gin.data()[i], (Inner(op, gy) - Inner(om, gy)) / (2 * eps), 2e-2f);
  }
}

TEST(GatLayerTest, SkippingInputGradLeavesParamGradsBitIdentical) {
  Rng rng(43);
  GatLayer layer(5, 3, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 5, 44);
  const Tensor gy = RandTensor(2, 6, 45);
  EXPECT_EQ(ParamGradBits(layer, blk, input, gy, true),
            ParamGradBits(layer, blk, input, gy, false));
}

TEST(GatLayerTest, SplitPathMatchesMonolithic) {
  // Project + AttentionForward must equal Forward (the engine relies on
  // composing them across a communication boundary).
  Rng rng(16);
  GatLayer layer(4, 3, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 4, 17);
  const Tensor whole = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  const Tensor z = layer.Project(input);
  const Tensor split = layer.AttentionForward(blk.csr(), blk.num_dst, z, nullptr);
  EXPECT_LT(MaxAbsDiff(whole, split), 1e-6f);
}

TEST(GatLayerTest, AttentionWeightsNormalized) {
  Rng rng(18);
  GatLayer layer(3, 2, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 19);
  const Tensor z = layer.Project(input);
  std::unique_ptr<GatAttentionContext> ctx;
  layer.AttentionForward(blk.csr(), blk.num_dst, z, &ctx);
  for (const auto& alpha : ctx->alpha) {
    EXPECT_NEAR(alpha[0] + alpha[1], 1.0f, 1e-5f);  // dst0 edges
    EXPECT_NEAR(alpha[2] + alpha[3], 1.0f, 1e-5f);  // dst1 edges
  }
}

TEST(GnnModelTest, DimensionChaining) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kSage;
  cfg.num_layers = 3;
  cfg.input_dim = 24;
  cfg.hidden_dim = 16;
  cfg.num_classes = 5;
  GnnModel m(cfg);
  EXPECT_EQ(m.num_layers(), 3);
  EXPECT_EQ(m.layer(0).in_dim(), 24);
  EXPECT_EQ(m.layer(0).out_dim(), 16);
  EXPECT_EQ(m.layer(2).out_dim(), 5);
}

TEST(GnnModelTest, GatHeadsConcatAcrossLayers) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kGat;
  cfg.num_layers = 3;
  cfg.input_dim = 12;
  cfg.hidden_dim = 8;
  cfg.gat_heads = 4;
  cfg.num_classes = 7;
  GnnModel m(cfg);
  EXPECT_EQ(m.layer(0).out_dim(), 32);  // 4 heads x 8
  EXPECT_EQ(m.layer(1).in_dim(), 32);
  EXPECT_EQ(m.layer(2).out_dim(), 7);  // final layer single head
}

TEST(GnnModelTest, IdenticalSeedsGiveIdenticalReplicas) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kSage;
  cfg.num_layers = 2;
  cfg.input_dim = 8;
  cfg.hidden_dim = 4;
  cfg.num_classes = 3;
  GnnModel a(cfg), b(cfg);
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0f);
  }
  EXPECT_GT(a.ParamBytes(), 0);
}

TEST(GnnModelTest, RejectsInvalidConfigs) {
  ModelConfig cfg;
  cfg.num_layers = 0;
  cfg.input_dim = 8;
  cfg.num_classes = 3;
  EXPECT_THROW(GnnModel{cfg}, Error);
  cfg.num_layers = 2;
  cfg.input_dim = 0;
  EXPECT_THROW(GnnModel{cfg}, Error);
}

TEST(OptimizerTest, SgdStepsAgainstGradient) {
  Param p("w", 1, 2);
  p.value = Tensor(1, 2, {1.0f, -1.0f});
  p.grad = Tensor(1, 2, {0.5f, -0.5f});
  Sgd opt(0.1f);
  opt.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 0.95f);
  EXPECT_FLOAT_EQ(p.value(0, 1), -0.95f);
}

TEST(OptimizerTest, SgdWeightDecay) {
  Param p("w", 1, 1);
  p.value = Tensor(1, 1, {2.0f});
  p.grad = Tensor(1, 1, {0.0f});
  Sgd opt(0.1f, /*weight_decay=*/0.5f);
  opt.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 2.0f - 0.1f * 0.5f * 2.0f);
}

}  // namespace
}  // namespace apt
