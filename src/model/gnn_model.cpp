#include "model/gnn_model.h"
#include <algorithm>

#include "core/error.h"
#include "tensor/ops.h"

namespace apt {

const char* ToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kSage:
      return "GraphSAGE";
    case ModelKind::kGat:
      return "GAT";
  }
  return "?";
}

GnnModel::GnnModel(const ModelConfig& config) : config_(config) {
  APT_CHECK_GT(config.num_layers, 0);
  APT_CHECK_GT(config.input_dim, 0);
  APT_CHECK_GT(config.num_classes, 1);
  Rng rng(config.init_seed);
  for (int k = 0; k < config.num_layers; ++k) {
    const bool last = k == config.num_layers - 1;
    Rng layer_rng = rng.Fork(static_cast<std::uint64_t>(k));
    if (config.kind == ModelKind::kSage) {
      const std::int64_t in = k == 0 ? config.input_dim : config.hidden_dim;
      const std::int64_t out = last ? config.num_classes : config.hidden_dim;
      layers_.push_back(std::make_unique<SageLayer>(in, out, layer_rng));
    } else {
      // Hidden GAT layers concatenate heads; the final layer uses one head
      // sized to the class count.
      const std::int64_t in =
          k == 0 ? config.input_dim : config.hidden_dim * config.gat_heads;
      const std::int64_t head_dim = last ? config.num_classes : config.hidden_dim;
      const std::int64_t heads = last ? 1 : config.gat_heads;
      layers_.push_back(std::make_unique<GatLayer>(in, head_dim, heads, layer_rng));
    }
  }
}

Tensor GnnModel::ForwardFrom(int first_layer, std::span<const Block> blocks,
                             const Tensor& input, ModelTape* tape) {
  APT_CHECK_EQ(static_cast<int>(blocks.size()), num_layers());
  // first_layer == num_layers is the single-layer-model case: a strategy
  // computed the whole network itself and this call is an identity.
  APT_CHECK(first_layer >= 0 && first_layer <= num_layers());
  if (tape != nullptr) {
    tape->layer_ctx.resize(static_cast<std::size_t>(num_layers()));
    tape->pre_activation.resize(static_cast<std::size_t>(num_layers()));
  }
  // A layer-0 start reads `input` in place; the entry activation below
  // rounds its operand, so a later start copies it once.
  const Tensor* x = &input;
  Tensor h;
  for (int k = first_layer; k < num_layers(); ++k) {
    if (k >= 1) {
      Tensor raw;
      if (k == first_layer) {
        raw = input;
      } else {
        raw = std::move(h);
      }
      // Quantized boundary: round the layer-0 raw output ONCE at layer 1's
      // entry, before it is saved or activated. Every strategy funnels
      // through this point with the same row values, so the rounded tensor
      // is identical across strategies.
      if (k == 1) CodecRoundRows(boundary_codec_, raw);
      // Entry activation: ReLU on the previous layer's raw output. Save the
      // raw values for the backward pass.
      h = Tensor::Uninit(raw.rows(), raw.cols());
      Relu(raw, h);
      if (tape != nullptr) {
        tape->pre_activation[static_cast<std::size_t>(k)] = std::move(raw);
      }
      x = &h;
    }
    const Block& b = blocks[static_cast<std::size_t>(k)];
    APT_CHECK_EQ(x->rows(), b.num_src()) << "layer " << k << " input rows";
    std::unique_ptr<LayerContext> ctx;
    h = layers_[static_cast<std::size_t>(k)]->Forward(
        b.csr(), b.num_dst, *x, tape != nullptr ? &ctx : nullptr);
    x = &h;
    if (tape != nullptr) {
      tape->layer_ctx[static_cast<std::size_t>(k)] = std::move(ctx);
    }
  }
  if (x == &input) return input;  // no layer ran: the identity case
  return h;
}

Tensor GnnModel::BackwardTo(int first_layer, std::span<const Block> blocks,
                            const ModelTape& tape, const Tensor& grad_logits) {
  APT_CHECK_EQ(static_cast<int>(blocks.size()), num_layers());
  Tensor grad = grad_logits;
  for (int k = num_layers() - 1; k >= first_layer; --k) {
    const Block& b = blocks[static_cast<std::size_t>(k)];
    grad = layers_[static_cast<std::size_t>(k)]->Backward(
        b.csr(), b.num_dst, *tape.layer_ctx[static_cast<std::size_t>(k)], grad,
        /*input_grad=*/k > 0);
    if (k >= 1) {
      const Tensor& raw = tape.pre_activation[static_cast<std::size_t>(k)];
      Tensor grad_raw = Tensor::Uninit(raw.rows(), raw.cols());
      ReluBackward(raw, grad, grad_raw);
      grad = std::move(grad_raw);
      // Quantized boundary, backward direction: the gradient handed across
      // the layer-1/layer-0 boundary is rounded once here — the same value
      // whether the caller continues into layer 0 locally (GDP) or ships
      // the rows back to their owners (DNP).
      if (k == 1) CodecRoundRows(boundary_codec_, grad);
    }
  }
  return grad;
}

std::vector<Param*> GnnModel::Params() {
  std::vector<Param*> out;
  for (auto& l : layers_) l->CollectParams(out);
  return out;
}

void GnnModel::CopyParamsFrom(GnnModel& src) {
  const std::vector<Param*> from = src.Params();
  const std::vector<Param*> to = Params();
  APT_CHECK_EQ(to.size(), from.size()) << "parameter copy across different models";
  for (std::size_t i = 0; i < to.size(); ++i) {
    APT_CHECK(to[i]->value.SameShape(from[i]->value))
        << "parameter copy shape mismatch for " << to[i]->name;
    to[i]->value = from[i]->value;
  }
}

void GnnModel::ZeroGrad() {
  for (Param* p : Params()) p->ZeroGrad();
}

std::int64_t GnnModel::ParamBytes() const {
  std::int64_t bytes = 0;
  for (auto& l : layers_) {
    std::vector<Param*> params;
    l->CollectParams(params);
    for (const Param* p : params) bytes += p->bytes();
  }
  return bytes;
}

double GnnModel::ForwardFlops(std::span<const Block> blocks) const {
  APT_CHECK_EQ(static_cast<int>(blocks.size()), num_layers());
  double flops = 0.0;
  for (int k = 0; k < num_layers(); ++k) {
    const Block& b = blocks[static_cast<std::size_t>(k)];
    flops += layers_[static_cast<std::size_t>(k)]->ForwardFlops(
        b.num_src(), b.num_dst, b.num_edges());
  }
  return flops;
}

double GnnModel::StepFlops(std::span<const Block> blocks, int first_layer) const {
  APT_CHECK_EQ(static_cast<int>(blocks.size()), num_layers());
  double flops = 0.0;
  for (int k = first_layer; k < num_layers(); ++k) {
    const Block& b = blocks[static_cast<std::size_t>(k)];
    flops += layers_[static_cast<std::size_t>(k)]->ForwardFlops(
                 b.num_src(), b.num_dst, b.num_edges()) +
             layers_[static_cast<std::size_t>(k)]->BackwardFlops(
                 b.num_src(), b.num_dst, b.num_edges());
  }
  return flops;
}

}  // namespace apt
