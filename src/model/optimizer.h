// Optimizers operating on Param lists (per device replica; DDP keeps the
// replicas identical because gradients are allreduced before Step).
#pragma once

#include <vector>

#include "model/param.h"

namespace apt {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void Step(const std::vector<Param*>& params) = 0;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float weight_decay = 0.0f)
      : lr_(lr), weight_decay_(weight_decay) {}
  void Step(const std::vector<Param*>& params) override;

 private:
  float lr_;
  float weight_decay_;
};

}  // namespace apt
