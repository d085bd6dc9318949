// NFP golden bits: three training steps of the NFP executor (SAGE and GAT,
// serial and pipelined, identity and int8 feature storage; uneven and
// multi-panel column slices) must reproduce exactly the loss bits,
// per-device simulated clocks, per-device simulated peak memory and layer-0
// weights recorded in the tables below. The host gathers every slice into
// one full-width buffer, aggregates each origin once, sums the slice
// partials with one fused GEMM per origin and forms the weight gradient with
// one GEMM per origin; this suite pins that all of it is bit-identical to
// the c x c partial / per-device GEMM formulation the tables were recorded
// from.
//
// Host arithmetic has two classes on x86-64: GEMM clones that fuse
// multiply-adds (AVX-512 hosts) and ones that do not (baseline / AVX2 hosts
// and sanitizer builds, which compile the clones out). The shared probe GEMM
// (test_util.h) picks the matching half of the table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::GemmFusesMultiplyAdd;
using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::SmallDataset;

constexpr int kDevices = 4;

struct NfpGolden {
  bool fused_gemm;
  ModelKind kind;
  int depth;
  Codec storage;
  std::uint64_t loss_bits;
  std::uint64_t clock_bits[kDevices];
  std::int64_t peak_bytes[kDevices];
  std::uint64_t weight_hash[kDevices];  ///< FNV-1a of each replica's layer 0
};

// Recorded from the c x c partial-tensor executor (AllReduceSum per origin,
// one MatmulTN per (device, origin) pair).
constexpr NfpGolden kGoldens[] = {
    {true, ModelKind::kSage, 1, Codec::kIdentity, 0x3fff3d6940000000ULL,
     {0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL},
     {271880, 271880, 271880, 271880},
     {0x826dec5b8df496feULL, 0x826dec5b8df496feULL, 0x826dec5b8df496feULL, 0x826dec5b8df496feULL}},
    {true, ModelKind::kSage, 1, Codec::kInt8, 0x3fff37a140000000ULL,
     {0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL},
     {225880, 225880, 225880, 225880},
     {0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL}},
    {true, ModelKind::kSage, 4, Codec::kIdentity, 0x3fff3d6940000000ULL,
     {0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL},
     {271880, 271880, 271880, 271880},
     {0x826dec5b8df496feULL, 0x826dec5b8df496feULL, 0x826dec5b8df496feULL, 0x826dec5b8df496feULL}},
    {true, ModelKind::kSage, 4, Codec::kInt8, 0x3fff37a140000000ULL,
     {0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL},
     {225880, 225880, 225880, 225880},
     {0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL, 0x5f2bd19fc05d440ULL}},
    {true, ModelKind::kGat, 1, Codec::kIdentity, 0x3ffc711dc0000000ULL,
     {0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL},
     {316344, 316344, 316344, 316344},
     {0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL}},
    {true, ModelKind::kGat, 1, Codec::kInt8, 0x3ffc7169c8000000ULL,
     {0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL},
     {270344, 270344, 270344, 270344},
     {0x6c320c796914224aULL, 0x6c320c796914224aULL, 0x6c320c796914224aULL, 0x6c320c796914224aULL}},
    {true, ModelKind::kGat, 4, Codec::kIdentity, 0x3ffc711dc0000000ULL,
     {0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL},
     {316344, 316344, 316344, 316344},
     {0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL, 0xce89638527e22ca2ULL}},
    {true, ModelKind::kGat, 4, Codec::kInt8, 0x3ffc7169c8000000ULL,
     {0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL},
     {270344, 270344, 270344, 270344},
     {0x6c320c796914224aULL, 0x6c320c796914224aULL, 0x6c320c796914224aULL, 0x6c320c796914224aULL}},
    {false, ModelKind::kSage, 1, Codec::kIdentity, 0x3fff3d6940000000ULL,
     {0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL, 0x3f47dd323f53e3d8ULL},
     {271880, 271880, 271880, 271880},
     {0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL}},
    {false, ModelKind::kSage, 1, Codec::kInt8, 0x3fff37a140000000ULL,
     {0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL, 0x3f47de7f5d73156dULL},
     {225880, 225880, 225880, 225880},
     {0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL}},
    {false, ModelKind::kSage, 4, Codec::kIdentity, 0x3fff3d6940000000ULL,
     {0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL, 0x3f47a9a4126a505cULL},
     {271880, 271880, 271880, 271880},
     {0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL, 0xdd7362c63ec67037ULL}},
    {false, ModelKind::kSage, 4, Codec::kInt8, 0x3fff37a140000000ULL,
     {0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL, 0x3f47aaf1308981f2ULL},
     {225880, 225880, 225880, 225880},
     {0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL, 0x7672986bf024fd77ULL}},
    {false, ModelKind::kGat, 1, Codec::kIdentity, 0x3ffc711dc0000000ULL,
     {0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL, 0x3f487c278864bd00ULL},
     {316344, 316344, 316344, 316344},
     {0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL}},
    {false, ModelKind::kGat, 1, Codec::kInt8, 0x3ffc7169c8000000ULL,
     {0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL, 0x3f487d74a683ee94ULL},
     {270344, 270344, 270344, 270344},
     {0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL}},
    {false, ModelKind::kGat, 4, Codec::kIdentity, 0x3ffc711dc0000000ULL,
     {0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL, 0x3f4848b8a06422b0ULL},
     {316344, 316344, 316344, 316344},
     {0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL, 0xba59523e82fe3fc7ULL}},
    {false, ModelKind::kGat, 4, Codec::kInt8, 0x3ffc7169c8000000ULL,
     {0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL, 0x3f484a05be835444ULL},
     {270344, 270344, 270344, 270344},
     {0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL, 0x95585a8deaa9d5beULL}},
};

/// Slice shapes the table above does not reach, at depth 1 with identity
/// storage: feature dim 30 splits unevenly over the 2 x 2 cluster (8, 8, 7
/// and 7 columns), and feature dim 1100 gives every device 275 columns, more
/// than one GEMM k-panel. Recorded from the per-device partial executor
/// (one Matmul pair per (device, origin), summed with Axpy).
struct NfpSliceGolden {
  bool fused_gemm;
  ModelKind kind;
  std::int64_t feature_dim;
  std::uint64_t loss_bits;
  std::uint64_t clock_bits[kDevices];
  std::int64_t peak_bytes[kDevices];
  std::uint64_t weight_hash[kDevices];
};

constexpr NfpSliceGolden kSliceGoldens[] = {
    {true, ModelKind::kSage, 30, 0x400884cc00000000ULL,
     {0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL},
     {267112, 267112, 251600, 251600},
     {0x72678fd3f6565b23ULL, 0x72678fd3f6565b23ULL, 0x72678fd3f6565b23ULL, 0x72678fd3f6565b23ULL}},
    {true, ModelKind::kGat, 30, 0x3ffe74c0e8000000ULL,
     {0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL},
     {312152, 312152, 296640, 296640},
     {0x5947048f8d7a0d91ULL, 0x5947048f8d7a0d91ULL, 0x5947048f8d7a0d91ULL, 0x5947048f8d7a0d91ULL}},
    {true, ModelKind::kSage, 1100, 0x400ce85cc8000000ULL,
     {0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL},
     {5807996, 5807996, 5807996, 5807996},
     {0x5d938764b4b8ca33ULL, 0x5d938764b4b8ca33ULL, 0x5d938764b4b8ca33ULL, 0x5d938764b4b8ca33ULL}},
    {true, ModelKind::kGat, 1100, 0x3ff94fb090000000ULL,
     {0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL},
     {5544876, 5544876, 5544876, 5544876},
     {0x2dd98fc4919df29cULL, 0x2dd98fc4919df29cULL, 0x2dd98fc4919df29cULL, 0x2dd98fc4919df29cULL}},
    {false, ModelKind::kSage, 30, 0x400884cc00000000ULL,
     {0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL, 0x3f47dce72f07d45bULL},
     {267112, 267112, 251600, 251600},
     {0xc0690f5eb0afd871ULL, 0xc0690f5eb0afd871ULL, 0xc0690f5eb0afd871ULL, 0xc0690f5eb0afd871ULL}},
    {false, ModelKind::kGat, 30, 0x3ffe74c0e8000000ULL,
     {0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL, 0x3f487bfcd16d4815ULL},
     {312152, 312152, 296640, 296640},
     {0xec353377963cd614ULL, 0xec353377963cd614ULL, 0xec353377963cd614ULL, 0xec353377963cd614ULL}},
    {false, ModelKind::kSage, 1100, 0x400ce85cc8000000ULL,
     {0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL, 0x3f4f7c40a5564253ULL},
     {5807996, 5807996, 5807996, 5807996},
     {0x11c5fa34ce49fd4cULL, 0x11c5fa34ce49fd4cULL, 0x11c5fa34ce49fd4cULL, 0x11c5fa34ce49fd4cULL}},
    {false, ModelKind::kGat, 1100, 0x3ff94fb090000000ULL,
     {0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL, 0x3f4fc45cd551fd88ULL},
     {5544876, 5544876, 5544876, 5544876},
     {0xb55a2d0799236919ULL, 0xb55a2d0799236919ULL, 0xb55a2d0799236919ULL, 0xb55a2d0799236919ULL}},
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

Observed RunThreeNfpSteps(const Dataset& ds, ModelKind kind, int depth, Codec storage) {
  EngineOptions opts;
  opts.strategy = Strategy::kNFP;
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

/// Appends the observed bits of a table row: loss, then the per-device
/// clocks, peaks and weight hashes.
void AppendObserved(std::ostringstream& os, const Observed& o) {
  os << std::hex << "0x" << o.loss_bits << "ULL,\n     {";
  for (int d = 0; d < kDevices; ++d) os << (d ? ", " : "") << "0x" << o.clock_bits[d] << "ULL";
  os << std::dec << "},\n     {";
  for (int d = 0; d < kDevices; ++d) os << (d ? ", " : "") << o.peak_bytes[d];
  os << std::hex << "},\n     {";
  for (int d = 0; d < kDevices; ++d) os << (d ? ", " : "") << "0x" << o.weight_hash[d] << "ULL";
  os << "}},";
}

/// The observation as a kGoldens row, so a missing or stale entry can be
/// re-recorded from the failure message.
std::string AsRow(bool fused, ModelKind kind, int depth, Codec storage,
                  const Observed& o) {
  std::ostringstream os;
  os << "    {" << (fused ? "true" : "false") << ", ModelKind::"
     << (kind == ModelKind::kSage ? "kSage" : "kGat") << ", " << depth
     << ", Codec::" << (storage == Codec::kIdentity ? "kIdentity" : "kInt8") << ", ";
  AppendObserved(os, o);
  return os.str();
}

/// The observation as a kSliceGoldens row.
std::string AsSliceRow(bool fused, ModelKind kind, std::int64_t feature_dim,
                       const Observed& o) {
  std::ostringstream os;
  os << "    {" << (fused ? "true" : "false") << ", ModelKind::"
     << (kind == ModelKind::kSage ? "kSage" : "kGat") << ", " << feature_dim << ", ";
  AppendObserved(os, o);
  return os.str();
}

void ExpectObserved(const Observed& o, std::uint64_t loss_bits,
                    const std::uint64_t (&clock_bits)[kDevices],
                    const std::int64_t (&peak_bytes)[kDevices],
                    const std::uint64_t (&weight_hash)[kDevices]) {
  EXPECT_EQ(o.loss_bits, loss_bits);
  for (int d = 0; d < kDevices; ++d) {
    EXPECT_EQ(o.clock_bits[d], clock_bits[d]) << "device " << d;
    EXPECT_EQ(o.peak_bytes[d], peak_bytes[d]) << "device " << d;
    EXPECT_EQ(o.weight_hash[d], weight_hash[d]) << "device " << d;
  }
}

TEST(NfpGoldenTest, ThreeStepsMatchRecordedBits) {
  const bool fused = GemmFusesMultiplyAdd();
  const Dataset ds = SmallDataset();
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (int depth : {1, 4}) {
      for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
        const Observed o = RunThreeNfpSteps(ds, kind, depth, storage);
        const std::string row = AsRow(fused, kind, depth, storage, o);
        const NfpGolden* golden = nullptr;
        for (const NfpGolden& g : kGoldens) {
          if (g.fused_gemm == fused && g.kind == kind && g.depth == depth &&
              g.storage == storage) {
            golden = &g;
          }
        }
        if (golden == nullptr) {
          ADD_FAILURE() << "no recorded row for\n" << row;
          continue;
        }
        SCOPED_TRACE(row);
        ExpectObserved(o, golden->loss_bits, golden->clock_bits, golden->peak_bytes,
                       golden->weight_hash);
      }
    }
  }
}

TEST(NfpGoldenTest, UnevenAndMultiPanelSlicesMatchRecordedBits) {
  const bool fused = GemmFusesMultiplyAdd();
  for (std::int64_t feature_dim : {30, 1100}) {
    const Dataset ds = SmallDataset(feature_dim);
    for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
      const Observed o = RunThreeNfpSteps(ds, kind, /*depth=*/1, Codec::kIdentity);
      const std::string row = AsSliceRow(fused, kind, feature_dim, o);
      const NfpSliceGolden* golden = nullptr;
      for (const NfpSliceGolden& g : kSliceGoldens) {
        if (g.fused_gemm == fused && g.kind == kind && g.feature_dim == feature_dim) {
          golden = &g;
        }
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no recorded row for\n" << row;
        continue;
      }
      SCOPED_TRACE(row);
      ExpectObserved(o, golden->loss_bits, golden->clock_bits, golden->peak_bytes,
                     golden->weight_hash);
    }
  }
}

}  // namespace
}  // namespace apt
