#include "model/optimizer.h"

namespace apt {

void Sgd::Step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    float* v = p->value.data();
    const float* g = p->grad.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      v[i] -= lr_ * (g[i] + weight_decay_ * v[i]);
    }
  }
}

}  // namespace apt
