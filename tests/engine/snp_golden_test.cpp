// SNP golden bits: a few training steps of the SNP executor must reproduce
// exactly the loss bits, per-device simulated clocks, per-device simulated
// peak memory and layer-0 weights recorded in the table below. Cases cover
// SAGE and GAT, serial and pipelined, identity and int8 feature storage,
// the hybrid intra-machine routing, and one 64-device sampled-execution run
// (probe steps plus fast-forward replay of the recorded step tape). The
// table was recorded from the c x c executor (one virtual-node batch, one
// partial tensor and one MatmulTN per (device, origin) pair); the host now
// routes SNP through flat per-device buffers, and this suite pins that the
// two are bit-identical.
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

enum class Case { k2x2, k2x2Hybrid, k16x4Scale };

struct SnpGolden {
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
constexpr SnpGolden kGoldens[] = {
    {true, Case::k2x2, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0xdbc44573d6cfdd6dULL, 0x7e1b8959fe8a9716ULL, 0xb40a5e439b9e4eb5ULL},
    {true, Case::k2x2, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a138000000ULL, 0xea303f153377d9b5ULL, 0xbd357ed236019febULL, 0x1bf33b9f4014990dULL},
    {true, Case::k2x2, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0xda76338d8ddef87dULL, 0x7e1b8959fe8a9716ULL, 0xb40a5e439b9e4eb5ULL},
    {true, Case::k2x2, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a138000000ULL, 0x2ff3f8b69212bee5ULL, 0xbd357ed236019febULL, 0x1bf33b9f4014990dULL},
    {true, Case::k2x2, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0x20db47894ffcfbd5ULL, 0x3bc6bd0a640c63e0ULL, 0xb42b505e8556e985ULL},
    {true, Case::k2x2, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0xca2ed98ecfc38aa5ULL, 0x69a21b05b1487188ULL, 0x10e4ccae1d404a0dULL},
    {true, Case::k2x2, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xfa20eb8f225b159dULL, 0x3bc6bd0a640c63e0ULL, 0xb42b505e8556e985ULL},
    {true, Case::k2x2, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0x5c96eda43d4ca3b5ULL, 0x69a21b05b1487188ULL, 0x10e4ccae1d404a0dULL},
    {true, Case::k2x2Hybrid, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0x3ead7b67af63201dULL, 0xa2f5a4de87d008ULL, 0x7700bbe9eb38f9e5ULL},
    {true, Case::k2x2Hybrid, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a148000000ULL, 0xaa8e1e59063f1045ULL, 0x1420641feb1b73eeULL, 0xaffac3d4a350e895ULL},
    {true, Case::k2x2Hybrid, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0x90520f05fa448925ULL, 0xa2f5a4de87d008ULL, 0x7700bbe9eb38f9e5ULL},
    {true, Case::k2x2Hybrid, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a148000000ULL, 0xffed384b03a5506dULL, 0x1420641feb1b73eeULL, 0xaffac3d4a350e895ULL},
    {true, Case::k2x2Hybrid, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xe847c66f087bdb25ULL, 0x3ae54b8a41a3f24aULL, 0x95e1bba74805addULL},
    {true, Case::k2x2Hybrid, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0x42c96a10fbb746f5ULL, 0x424244188861fad3ULL, 0xa94be2c835a79d85ULL},
    {true, Case::k2x2Hybrid, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xfb8e22a79dcbbcf5ULL, 0x3ae54b8a41a3f24aULL, 0x95e1bba74805addULL},
    {true, Case::k2x2Hybrid, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c0000000ULL, 0xe537b51834de4455ULL, 0x424244188861fad3ULL, 0xa94be2c835a79d85ULL},
    {true, Case::k16x4Scale, ModelKind::kSage, 1, Codec::kIdentity,
     0x400101b982c00000ULL, 0xa40e6e03cf7ea425ULL, 0x16fb6a4ec3163fdfULL, 0xb5a78b7fca75f125ULL},
    {false, Case::k2x2, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0xdbc44573d6cfdd6dULL, 0x7e1b8959fe8a9716ULL, 0x2040c000c566d355ULL},
    {false, Case::k2x2, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a140000000ULL, 0xea303f153377d9b5ULL, 0xbd357ed236019febULL, 0x2bc2eb710848c1e5ULL},
    {false, Case::k2x2, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6940000000ULL, 0xda76338d8ddef87dULL, 0x7e1b8959fe8a9716ULL, 0x2040c000c566d355ULL},
    {false, Case::k2x2, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a140000000ULL, 0x2ff3f8b69212bee5ULL, 0xbd357ed236019febULL, 0x2bc2eb710848c1e5ULL},
    {false, Case::k2x2, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0x20db47894ffcfbd5ULL, 0x3bc6bd0a640c63e0ULL, 0x9cba0fc46afc0a05ULL},
    {false, Case::k2x2, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0xca2ed98ecfc38aa5ULL, 0x69a21b05b1487188ULL, 0x4acaaa650589f07dULL},
    {false, Case::k2x2, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xfa20eb8f225b159dULL, 0x3bc6bd0a640c63e0ULL, 0x9cba0fc46afc0a05ULL},
    {false, Case::k2x2, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0x5c96eda43d4ca3b5ULL, 0x69a21b05b1487188ULL, 0x4acaaa650589f07dULL},
    {false, Case::k2x2Hybrid, ModelKind::kSage, 1, Codec::kIdentity,
     0x3fff3d6930000000ULL, 0x3ead7b67af63201dULL, 0xa2f5a4de87d008ULL, 0xb4bc00e83557e7d5ULL},
    {false, Case::k2x2Hybrid, ModelKind::kSage, 1, Codec::kInt8,
     0x3fff37a140000000ULL, 0xaa8e1e59063f1045ULL, 0x1420641feb1b73eeULL, 0x9e56ea02ecface8dULL},
    {false, Case::k2x2Hybrid, ModelKind::kSage, 4, Codec::kIdentity,
     0x3fff3d6930000000ULL, 0x90520f05fa448925ULL, 0xa2f5a4de87d008ULL, 0xb4bc00e83557e7d5ULL},
    {false, Case::k2x2Hybrid, ModelKind::kSage, 4, Codec::kInt8,
     0x3fff37a140000000ULL, 0xffed384b03a5506dULL, 0x1420641feb1b73eeULL, 0x9e56ea02ecface8dULL},
    {false, Case::k2x2Hybrid, ModelKind::kGat, 1, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xe847c66f087bdb25ULL, 0x3ae54b8a41a3f24aULL, 0x8a5af706e8d7dea5ULL},
    {false, Case::k2x2Hybrid, ModelKind::kGat, 1, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0x42c96a10fbb746f5ULL, 0x424244188861fad3ULL, 0x6e87b68fd379863dULL},
    {false, Case::k2x2Hybrid, ModelKind::kGat, 4, Codec::kIdentity,
     0x3ffc711dc0000000ULL, 0xfb8e22a79dcbbcf5ULL, 0x3ae54b8a41a3f24aULL, 0x8a5af706e8d7dea5ULL},
    {false, Case::k2x2Hybrid, ModelKind::kGat, 4, Codec::kInt8,
     0x3ffc7169c8000000ULL, 0xe537b51834de4455ULL, 0x424244188861fad3ULL, 0x6e87b68fd379863dULL},
    {false, Case::k16x4Scale, ModelKind::kSage, 1, Codec::kIdentity,
     0x400101b982000000ULL, 0xa40e6e03cf7ea425ULL, 0x16fb6a4ec3163fdfULL, 0x50087884337251a5ULL},
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

Observed RunSnpSteps(Case config, ModelKind kind, int depth, Codec storage) {
  EngineOptions opts;
  opts.strategy = Strategy::kSNP;
  opts.seed_assignment = SeedAssignment::kChunked;
  opts.pipeline_depth = depth;
  opts.storage_codec = storage;
  opts.hybrid_intra_machine = config == Case::k2x2Hybrid;
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
    case Case::k2x2Hybrid:
      return "Case::k2x2Hybrid";
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
  const Observed o = RunSnpSteps(config, kind, depth, storage);
  const std::string row = AsRow(fused, config, kind, depth, storage, o);
  const SnpGolden* golden = nullptr;
  for (const SnpGolden& g : kGoldens) {
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

TEST(SnpGoldenTest, StepsMatchRecordedBits) {
  const bool fused = GemmFusesMultiplyAdd();
  for (Case config : {Case::k2x2, Case::k2x2Hybrid}) {
    for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
      for (int depth : {1, 4}) {
        for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
          CheckCase(fused, config, kind, depth, storage);
        }
      }
    }
  }
}

TEST(SnpGoldenTest, SixtyFourDeviceSampledRunMatchesRecordedBits) {
  CheckCase(GemmFusesMultiplyAdd(), Case::k16x4Scale, ModelKind::kSage, 1,
            Codec::kIdentity);
}

}  // namespace
}  // namespace apt
