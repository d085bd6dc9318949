// Abstract GNN layer interface consumed by the unified execution engine.
//
// A layer computes destination embeddings for one bipartite Block from
// source embeddings. Forward returns a per-call context object holding the
// saved activations Backward needs, so a single layer replica can be driven
// over many blocks per step (the engine runs one replica per device).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/param.h"
#include "tensor/segment_ops.h"
#include "tensor/tensor.h"

namespace apt {

/// Opaque saved-activation holder; each layer defines its own subclass.
class LayerContext {
 public:
  virtual ~LayerContext() = default;
};

class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  /// input is [num_src, in_dim]; the first num_dst rows are the destination
  /// nodes' own embeddings (Block prefix convention). Returns
  /// [num_dst, out_dim]; `saved` receives the context for Backward.
  virtual Tensor Forward(const CsrView& csr, std::int64_t num_dst,
                         const Tensor& input,
                         std::unique_ptr<LayerContext>* saved) = 0;

  /// Accumulates parameter grads. With `input_grad` returns grad_input
  /// [num_src, in_dim]; without it returns an empty tensor and skips that
  /// pass (layer 0, whose input is raw features). Parameter grads are
  /// bit-identical either way.
  virtual Tensor Backward(const CsrView& csr, std::int64_t num_dst,
                          const LayerContext& saved, const Tensor& grad_out,
                          bool input_grad) = 0;

  virtual void CollectParams(std::vector<Param*>& out) = 0;

  virtual std::int64_t in_dim() const = 0;
  virtual std::int64_t out_dim() const = 0;

  /// Approximate flop counts for the simulator's compute-time model.
  virtual double ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                              std::int64_t num_edges) const = 0;
  virtual double BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                               std::int64_t num_edges) const = 0;
};

}  // namespace apt
