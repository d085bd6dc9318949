// Engine context: everything a strategy executor needs to run a step.
#pragma once

#include <memory>
#include <vector>

#include "comm/collectives.h"
#include "core/types.h"
#include "engine/engine_types.h"
#include "feature/feature_store.h"
#include "graph/dataset.h"
#include "model/gnn_model.h"
#include "sim/sim_context.h"

namespace apt {

struct EngineCtx {
  SimContext* sim = nullptr;
  Communicator* comm = nullptr;
  FeatureStore* store = nullptr;
  const Dataset* dataset = nullptr;
  /// node -> owning device (parts map 1:1 onto devices).
  const std::vector<PartId>* partition = nullptr;
  /// One identically-initialized model replica per device (DDP).
  std::vector<std::unique_ptr<GnnModel>>* models = nullptr;
  EngineOptions opts;

  std::int32_t num_devices() const { return sim->num_devices(); }
  ModelKind model_kind() const { return (*models)[0]->config().kind; }
  GnnModel& model(DeviceId d) { return *(*models)[static_cast<std::size_t>(d)]; }
  std::int64_t feature_dim() const { return dataset->feature_dim(); }
};

}  // namespace apt
