// DNP golden bits: a few training steps of the DNP executor must reproduce
// exactly the loss bits, per-device simulated clocks, per-device simulated
// peak memory and layer-0 weights recorded in the table below. Cases cover
// SAGE and GAT, serial and pipelined, identity and int8 feature storage, one
// SAGE run under a lossy wire codec (the quantized layer-0 backward), and
// one 64-device sampled-execution run (probe steps plus fast-forward replay
// of the recorded step tape). The table was recorded from the c x c
// executor (one destination batch and one row tensor per (origin, owner)
// pair, shuffled through per-pair object and tensor all-to-alls); the host
// now routes DNP through the flat pair routing it shares with SNP, and this
// suite pins that the two are bit-identical.
//
// Host arithmetic has two classes on x86-64: GEMM clones that fuse
// multiply-adds (AVX-512 hosts) and ones that do not (baseline / AVX2 hosts
// and sanitizer builds, which compile the clones out). The shared probe GEMM
// (test_util.h) picks the matching half of the table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::GemmFusesMultiplyAdd;
using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::SmallDataset;

enum class Case { k2x2, k2x2LossyWire, k16x4Scale };

struct DnpGolden {
  bool fused_gemm;
  Case config;
  ModelKind kind;
  int depth;
  Codec storage;
  std::uint64_t loss_bits;
  std::uint64_t clock_hash;   ///< FNV-1a over every device's clock bits
  std::uint64_t peak_hash;    ///< FNV-1a over every device's PeakMemory
  std::uint64_t weight_hash;  ///< FNV-1a over every replica's layer-0 hash
};

// Recorded from the c x c executor.
constexpr DnpGolden kGoldens[] = {
    {true, Case::k2x2, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0xf451344255d93955ULL, 0x6fe2638a8b300ecdULL, 0xb00bd017cab9c565ULL},
    {true, Case::k2x2, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a138000000ULL, 0x1efa2b69ebeadf05ULL, 0x42dd392b5b78ac82ULL, 0x96607525178ae14dULL},
    {true, Case::k2x2, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0x3f78bac21ccd4fcdULL, 0x6fe2638a8b300ecdULL, 0xb00bd017cab9c565ULL},
    {true, Case::k2x2, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a138000000ULL, 0xd47d60ebcd425325ULL, 0x42dd392b5b78ac82ULL, 0x96607525178ae14dULL},
    {true, Case::k2x2, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xdc0a12c13cb81365ULL, 0xa92f4b200b1cda9ULL, 0xe9189a001b066b05ULL},
    {true, Case::k2x2, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0xfbab62d130195175ULL, 0x660263e9d6c95aaULL, 0xffb8be176e6d360dULL},
    {true, Case::k2x2, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xea18aad5094a0ea5ULL, 0xa92f4b200b1cda9ULL, 0xe9189a001b066b05ULL},
    {true, Case::k2x2, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0x60903acfc13893bdULL, 0x660263e9d6c95aaULL, 0xffb8be176e6d360dULL},
    {true, Case::k2x2LossyWire, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3e51a0000000ULL, 0xdefed8be2cf7befdULL, 0x6fe2638a8b300ecdULL, 0x121d3259b4e3a7b5ULL},
    {true, Case::k16x4Scale, ModelKind::kSage, 1, Codec::kIdentity,
     0x400101b983e00000ULL, 0x8b6772083b631125ULL, 0xe8d88f6c034aa36ULL, 0x5be40a306387f025ULL},
    {false, Case::k2x2, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6930000000ULL, 0xf451344255d93955ULL, 0x6fe2638a8b300ecdULL, 0xc485f06aed7d5245ULL},
    {false, Case::k2x2, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a140000000ULL, 0x1efa2b69ebeadf05ULL, 0x42dd392b5b78ac82ULL, 0x1ee3a385c3304455ULL},
    {false, Case::k2x2, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6930000000ULL, 0x3f78bac21ccd4fcdULL, 0x6fe2638a8b300ecdULL, 0xc485f06aed7d5245ULL},
    {false, Case::k2x2, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a140000000ULL, 0xd47d60ebcd425325ULL, 0x42dd392b5b78ac82ULL, 0x1ee3a385c3304455ULL},
    {false, Case::k2x2, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xdc0a12c13cb81365ULL, 0xa92f4b200b1cda9ULL, 0xd9dcb90666f822e5ULL},
    {false, Case::k2x2, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0xfbab62d130195175ULL, 0x660263e9d6c95aaULL, 0x65f1cddd96eb0325ULL},
    {false, Case::k2x2, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xea18aad5094a0ea5ULL, 0xa92f4b200b1cda9ULL, 0xd9dcb90666f822e5ULL},
    {false, Case::k2x2, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0x60903acfc13893bdULL, 0x660263e9d6c95aaULL, 0x65f1cddd96eb0325ULL},
    {false, Case::k2x2LossyWire, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3e51b0000000ULL, 0xdefed8be2cf7befdULL, 0x6fe2638a8b300ecdULL, 0x6c81b38c544067b5ULL},
    {false, Case::k16x4Scale, ModelKind::kSage, 1, Codec::kIdentity,
     0x400101b984200000ULL, 0x8b6772083b631125ULL, 0xe8d88f6c034aa36ULL, 0xe95f0a6315dedda5ULL},
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

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
  std::uint64_t h = kFnvBasis;
  for (const Param* p : params) {
    h = Fnv1a(h, p->value.data(),
              static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
  return h;
}

struct Observed {
  std::uint64_t loss_bits = 0;
  std::uint64_t clock_hash = kFnvBasis;
  std::uint64_t peak_hash = kFnvBasis;
  std::uint64_t weight_hash = kFnvBasis;
};

Observed RunDnpSteps(Case config, ModelKind kind, int depth, Codec storage) {
  EngineOptions opts;
  opts.strategy = Strategy::kDNP;
  opts.seed_assignment = SeedAssignment::kChunked;
  opts.pipeline_depth = depth;
  opts.storage_codec = storage;
  ClusterSpec cluster = MultiMachineCluster(2, 2);
  const Dataset* ds = nullptr;
  if (config == Case::k16x4Scale) {
    // 64 devices: the wide-collective paths, plus two probes each followed
    // by three fast-forwarded replays of its step tape.
    static const Dataset wide = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
    ds = &wide;
    cluster = MultiMachineCluster(16, 4);
    opts.fanouts = {4, 4};
    opts.batch_size_per_device = 8;
    opts.cache_bytes_per_device = 1 << 18;
    opts.scale_sample_period = 4;
    opts.max_steps_per_epoch = 8;
  } else {
    static const Dataset small = SmallDataset();
    ds = &small;
    opts.fanouts = {5, 5};
    opts.batch_size_per_device = 128;
    opts.cache_bytes_per_device = 1 << 20;
    opts.max_steps_per_epoch = 3;
    if (config == Case::k2x2LossyWire) {
      // A lossy wire codec sends SAGE's layer-0 backward through the
      // canonical quantized path and prices the row shuffles at int8 bytes.
      opts.wire_codec = Codec::kInt8;
    }
  }
  auto trainer = MakeTrainerWithOptions(*ds, cluster, opts, /*hidden=*/0, kind);
  const EpochStats stats = trainer->TrainEpoch(0);
  Observed o;
  o.loss_bits = std::bit_cast<std::uint64_t>(stats.loss);
  for (DeviceId d = 0; d < trainer->sim().num_devices(); ++d) {
    const std::uint64_t clock = std::bit_cast<std::uint64_t>(trainer->sim().Now(d));
    const std::int64_t peak = trainer->sim().PeakMemory(d);
    const std::uint64_t weights = Layer0Hash(trainer->replica(d));
    o.clock_hash = Fnv1a(o.clock_hash, &clock, sizeof(clock));
    o.peak_hash = Fnv1a(o.peak_hash, &peak, sizeof(peak));
    o.weight_hash = Fnv1a(o.weight_hash, &weights, sizeof(weights));
  }
  return o;
}

const char* CaseName(Case config) {
  switch (config) {
    case Case::k2x2:
      return "Case::k2x2";
    case Case::k2x2LossyWire:
      return "Case::k2x2LossyWire";
    case Case::k16x4Scale:
      return "Case::k16x4Scale";
  }
  return "?";
}

/// The observation as a kGoldens row, so a missing or stale entry can be
/// re-recorded from the failure message.
std::string AsRow(bool fused, Case config, ModelKind kind, int depth, Codec storage,
                  const Observed& o) {
  std::ostringstream os;
  os << "    {" << (fused ? "true" : "false") << ", " << CaseName(config)
     << ", ModelKind::" << (kind == ModelKind::kSage ? "kSage" : "kGat") << ", "
     << depth << ", Codec::" << (storage == Codec::kIdentity ? "kIdentity" : "kInt8")
     << std::hex << ",\n     0x" << o.loss_bits << "ULL, 0x" << o.clock_hash
     << "ULL, 0x" << o.peak_hash << "ULL, 0x" << o.weight_hash << "ULL},";
  return os.str();
}

void CheckCase(bool fused, Case config, ModelKind kind, int depth, Codec storage) {
  const Observed o = RunDnpSteps(config, kind, depth, storage);
  const std::string row = AsRow(fused, config, kind, depth, storage, o);
  const DnpGolden* golden = nullptr;
  for (const DnpGolden& g : kGoldens) {
    if (g.fused_gemm == fused && g.config == config && g.kind == kind &&
        g.depth == depth && g.storage == storage) {
      golden = &g;
    }
  }
  if (golden == nullptr) {
    ADD_FAILURE() << "no recorded row for\n" << row;
    return;
  }
  SCOPED_TRACE(row);
  EXPECT_EQ(o.loss_bits, golden->loss_bits);
  EXPECT_EQ(o.clock_hash, golden->clock_hash);
  EXPECT_EQ(o.peak_hash, golden->peak_hash);
  EXPECT_EQ(o.weight_hash, golden->weight_hash);
}

TEST(DnpGoldenTest, StepsMatchRecordedBits) {
  const bool fused = GemmFusesMultiplyAdd();
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (int depth : {1, 4}) {
      for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
        CheckCase(fused, Case::k2x2, kind, depth, storage);
      }
    }
  }
}

TEST(DnpGoldenTest, LossyWireCodecMatchesRecordedBits) {
  CheckCase(GemmFusesMultiplyAdd(), Case::k2x2LossyWire, ModelKind::kSage, 1,
            Codec::kIdentity);
}

TEST(DnpGoldenTest, SixtyFourDeviceSampledRunMatchesRecordedBits) {
  CheckCase(GemmFusesMultiplyAdd(), Case::k16x4Scale, ModelKind::kSage, 1,
            Codec::kIdentity);
}

}  // namespace
}  // namespace apt
