// NFP golden charges and GDP's bits: three training steps of the NFP
// executor (SAGE and GAT, serial and pipelined, identity and int8 feature
// storage; uneven and multi-panel column slices) must reproduce exactly the
// per-device simulated clocks and peak memory recorded in the tables below,
// and train exactly what GDP trains on the same mini-batches: the same loss
// bits and, on every device, the same layer-0 weights.
//
// NFP's column slices live in its charges only: the host runs each origin's
// layer 0 with the model's own kernels, so the clocks and peaks pin the
// slice charges while the GDP comparison pins the arithmetic, on whichever
// GEMM class (fused or unfused multiply-adds) the host has.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::SmallDataset;

constexpr int kDevices = 4;

struct NfpGolden {
  ModelKind kind;
  int depth;
  Codec storage;
  std::uint64_t clock_bits[kDevices];
  std::int64_t peak_bytes[kDevices];
};

// Recorded from the c x c partial-tensor executor (AllReduceSum per origin,
// one MatmulTN per (device, origin) pair).
constexpr NfpGolden kGoldens[] = {
    {ModelKind::kSage, 1, Codec::kIdentity,
     {0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL},
     {271880, 271880, 271880, 271880}},
    {ModelKind::kSage, 1, Codec::kInt8,
     {0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL},
     {225880, 225880, 225880, 225880}},
    {ModelKind::kSage, 4, Codec::kIdentity,
     {0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL},
     {271880, 271880, 271880, 271880}},
    {ModelKind::kSage, 4, Codec::kInt8,
     {0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL},
     {225880, 225880, 225880, 225880}},
    {ModelKind::kGat, 1, Codec::kIdentity,
     {0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL},
     {316344, 316344, 316344, 316344}},
    {ModelKind::kGat, 1, Codec::kInt8,
     {0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL},
     {270344, 270344, 270344, 270344}},
    {ModelKind::kGat, 4, Codec::kIdentity,
     {0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL},
     {316344, 316344, 316344, 316344}},
    {ModelKind::kGat, 4, Codec::kInt8,
     {0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL},
     {270344, 270344, 270344, 270344}},
};

/// Slice shapes the table above does not reach, at depth 1 with identity
/// storage: feature dim 30 splits unevenly over the 2 x 2 cluster (8, 8, 7
/// and 7 columns), and feature dim 1100 gives every device 275 columns, more
/// than one GEMM k-panel. Recorded from the per-device partial executor
/// (one Matmul pair per (device, origin), summed with Axpy).
struct NfpSliceGolden {
  ModelKind kind;
  std::int64_t feature_dim;
  std::uint64_t clock_bits[kDevices];
  std::int64_t peak_bytes[kDevices];
};

constexpr NfpSliceGolden kSliceGoldens[] = {
    {ModelKind::kSage, 30,
     {0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL},
     {267112, 267112, 251600, 251600}},
    {ModelKind::kGat, 30,
     {0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL},
     {312152, 312152, 296640, 296640}},
    {ModelKind::kSage, 1100,
     {0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL},
     {5807996, 5807996, 5807996, 5807996}},
    {ModelKind::kGat, 1100,
     {0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL},
     {5544876, 5544876, 5544876, 5544876}},
};

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Layer0Hash(GnnModel& model) {
  std::vector<Param*> params;
  model.layer(0).CollectParams(params);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Param* p : params) {
    h = Fnv1a(h, p->value.data(),
              static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
  return h;
}

struct Observed {
  std::uint64_t loss_bits = 0;
  std::uint64_t clock_bits[kDevices] = {};
  std::int64_t peak_bytes[kDevices] = {};
  std::uint64_t weight_hash[kDevices] = {};
};

Observed RunThreeSteps(const Dataset& ds, Strategy strategy, ModelKind kind, int depth,
                       Codec storage) {
  EngineOptions opts;
  opts.strategy = strategy;
  opts.fanouts = {5, 5};
  opts.batch_size_per_device = 128;
  opts.cache_bytes_per_device = 1 << 20;
  opts.seed_assignment = SeedAssignment::kChunked;
  opts.pipeline_depth = depth;
  opts.storage_codec = storage;
  opts.max_steps_per_epoch = 3;
  auto trainer = MakeTrainerWithOptions(ds, MultiMachineCluster(2, 2), opts,
                                        /*hidden=*/0, kind);
  const EpochStats stats = trainer->TrainEpoch(0);
  Observed o;
  o.loss_bits = std::bit_cast<std::uint64_t>(stats.loss);
  for (DeviceId d = 0; d < kDevices; ++d) {
    const auto i = static_cast<std::size_t>(d);
    o.clock_bits[i] = std::bit_cast<std::uint64_t>(trainer->sim().Now(d));
    o.peak_bytes[i] = trainer->sim().PeakMemory(d);
    o.weight_hash[i] = Layer0Hash(trainer->replica(d));
  }
  return o;
}

/// Appends the observed charges of a table row: the per-device clocks, then
/// the peaks.
void AppendObserved(std::ostringstream& os, const Observed& o) {
  os << "\n     {" << std::hex;
  for (int d = 0; d < kDevices; ++d) os << (d ? ", " : "") << "0x" << o.clock_bits[d] << "ULL";
  os << std::dec << "},\n     {";
  for (int d = 0; d < kDevices; ++d) os << (d ? ", " : "") << o.peak_bytes[d];
  os << "}},";
}

/// The observation as a kGoldens row, so a missing or stale entry can be
/// re-recorded from the failure message.
std::string AsRow(ModelKind kind, int depth, Codec storage, const Observed& o) {
  std::ostringstream os;
  os << "    {ModelKind::" << (kind == ModelKind::kSage ? "kSage" : "kGat") << ", " << depth
     << ", Codec::" << (storage == Codec::kIdentity ? "kIdentity" : "kInt8") << ",";
  AppendObserved(os, o);
  return os.str();
}

/// The observation as a kSliceGoldens row.
std::string AsSliceRow(ModelKind kind, std::int64_t feature_dim, const Observed& o) {
  std::ostringstream os;
  os << "    {ModelKind::" << (kind == ModelKind::kSage ? "kSage" : "kGat") << ", "
     << feature_dim << ",";
  AppendObserved(os, o);
  return os.str();
}

/// NFP's charges equal the recorded ones, and its loss and every replica's
/// layer 0 equal GDP's.
void ExpectObserved(const Observed& nfp, const Observed& gdp,
                    const std::uint64_t (&clock_bits)[kDevices],
                    const std::int64_t (&peak_bytes)[kDevices]) {
  EXPECT_EQ(nfp.loss_bits, gdp.loss_bits);
  for (int d = 0; d < kDevices; ++d) {
    EXPECT_EQ(nfp.clock_bits[d], clock_bits[d]) << "device " << d;
    EXPECT_EQ(nfp.peak_bytes[d], peak_bytes[d]) << "device " << d;
    EXPECT_EQ(nfp.weight_hash[d], gdp.weight_hash[d]) << "device " << d;
  }
}

TEST(NfpGoldenTest, ThreeStepsMatchRecordedBits) {
  const Dataset ds = SmallDataset();
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (int depth : {1, 4}) {
      for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
        const Observed o = RunThreeSteps(ds, Strategy::kNFP, kind, depth, storage);
        const std::string row = AsRow(kind, depth, storage, o);
        const NfpGolden* golden = nullptr;
        for (const NfpGolden& g : kGoldens) {
          if (g.kind == kind && g.depth == depth && g.storage == storage) golden = &g;
        }
        if (golden == nullptr) {
          ADD_FAILURE() << "no recorded row for\n" << row;
          continue;
        }
        SCOPED_TRACE(row);
        ExpectObserved(o, RunThreeSteps(ds, Strategy::kGDP, kind, depth, storage),
                       golden->clock_bits, golden->peak_bytes);
      }
    }
  }
}

TEST(NfpGoldenTest, UnevenAndMultiPanelSlicesMatchRecordedBits) {
  for (std::int64_t feature_dim : {30, 1100}) {
    const Dataset ds = SmallDataset(feature_dim);
    for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
      const Observed o = RunThreeSteps(ds, Strategy::kNFP, kind, /*depth=*/1, Codec::kIdentity);
      const std::string row = AsSliceRow(kind, feature_dim, o);
      const NfpSliceGolden* golden = nullptr;
      for (const NfpSliceGolden& g : kSliceGoldens) {
        if (g.kind == kind && g.feature_dim == feature_dim) golden = &g;
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no recorded row for\n" << row;
        continue;
      }
      SCOPED_TRACE(row);
      ExpectObserved(o, RunThreeSteps(ds, Strategy::kGDP, kind, 1, Codec::kIdentity),
                     golden->clock_bits, golden->peak_bytes);
    }
  }
}

}  // namespace
}  // namespace apt
