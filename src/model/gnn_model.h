// A K-layer GNN model (uniform layer type) with ReLU between layers.
//
// Layer 0 is the *first layer of computation* in the paper's sense (the one
// the parallelization strategies distribute); the final layer emits class
// logits for the seed nodes. The engine may execute layer 0 itself (with
// strategy-specific communication) and use ForwardFrom/BackwardTo for the
// data-parallel remainder — activations are applied at the *entry* of every
// layer k >= 1, so a strategy only needs to produce layer 0's raw output.
#pragma once

#include <memory>
#include <vector>

#include "core/random.h"
#include "model/gat_layer.h"
#include "model/gnn_layer.h"
#include "model/sage_layer.h"
#include "sampling/block.h"
#include "tensor/codec.h"

namespace apt {

enum class ModelKind { kSage, kGat };

const char* ToString(ModelKind kind);

struct ModelConfig {
  ModelKind kind = ModelKind::kSage;
  int num_layers = 3;
  std::int64_t input_dim = 0;
  std::int64_t hidden_dim = 32;   ///< per-head for GAT
  std::int64_t num_classes = 0;
  std::int64_t gat_heads = 4;     ///< heads for hidden GAT layers
  std::uint64_t init_seed = 2024; ///< same seed => identical replicas
};

/// Per-step saved state for one device's forward pass.
struct ModelTape {
  std::vector<std::unique_ptr<LayerContext>> layer_ctx;  ///< per layer
  std::vector<Tensor> pre_activation;  ///< raw layer outputs (for ReLU bwd)
};

class GnnModel {
 public:
  explicit GnnModel(const ModelConfig& config);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  GnnLayer& layer(int i) { return *layers_[static_cast<std::size_t>(i)]; }
  const GnnLayer& layer(int i) const { return *layers_[static_cast<std::size_t>(i)]; }
  const ModelConfig& config() const { return config_; }

  /// Runs layers [first_layer, K) on the block stack. `input` is layer
  /// first_layer's raw input ([blocks[first_layer].num_src, in_dim]); for
  /// first_layer >= 1 the entry ReLU is applied internally. Returns the
  /// logits for blocks.back()'s destination (seed) nodes.
  /// first_layer == K is allowed and returns `input` unchanged (single-layer
  /// models whose only layer a strategy executed itself).
  Tensor ForwardFrom(int first_layer, std::span<const Block> blocks,
                     const Tensor& input, ModelTape* tape);

  /// Backward counterpart; returns the gradient w.r.t. `input` as passed to
  /// ForwardFrom (i.e. including the entry-ReLU backward for layers >= 1).
  /// With first_layer == 0 that input is the raw features, which need no
  /// gradient: layer 0 skips its input-gradient pass and the result is empty.
  Tensor BackwardTo(int first_layer, std::span<const Block> blocks,
                    const ModelTape& tape, const Tensor& grad_logits);

  /// Boundary codec for quantized training (lossy wire codecs). When set,
  /// the layer-0/layer-1 boundary tensors are rounded to the codec grid in
  /// a FIXED canonical place — layer 1's entry, in both directions — so the
  /// rounding is identical whether a strategy computed layer 0 locally
  /// (GDP: ForwardFrom(0)/BackwardTo(0..1)) or assembled it from shipped
  /// rows (DNP/NFP/SNP: ForwardFrom(1)/BackwardTo(1)). Rounding is per-row
  /// / per-element, so it commutes with how rows are batched across devices
  /// (DESIGN.md invariant 8).
  void set_boundary_codec(Codec codec) { boundary_codec_ = codec; }
  Codec boundary_codec() const { return boundary_codec_; }

  std::vector<Param*> Params();
  /// Copies every parameter value of `src`, which must have the same
  /// parameter list and shapes (checked).
  void CopyParamsFrom(GnnModel& src);
  void ZeroGrad();
  std::int64_t ParamBytes() const;

  /// Flops of a forward+backward of layers [first_layer, K) over the block
  /// stack: what the executors charge and the dry-run estimates with.
  double StepFlops(std::span<const Block> blocks, int first_layer = 0) const;

  /// Forward-only flops over the block stack: what an inference pass costs
  /// (the serving engine's compute-time model).
  double ForwardFlops(std::span<const Block> blocks) const;

 private:
  ModelConfig config_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  Codec boundary_codec_ = Codec::kIdentity;
};

}  // namespace apt
