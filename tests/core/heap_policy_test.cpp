// The runtime's heap policy: blocks a training step frees stay in glibc's
// heap, so an epoch after a warm-up epoch reuses pages instead of faulting
// fresh zero pages in.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace apt {
namespace {

std::int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(HeapPolicyTest, SteadyStateEpochTakesFewMinorFaults) {
#if !defined(__GLIBC__) || defined(APT_SANITIZED)
  GTEST_SKIP() << "the policy tunes glibc's allocator; sanitizers replace it";
#endif
  ThreadPool::Global();
  // One lane: every block then comes from the main arena, so what is
  // counted is the steps' churn, not pool workers' arenas growing to their
  // own high-water marks (which takes more epochs and varies with timing).
  ScopedParallelismLimit one_lane(1);
  // Three 10-fanout SAGE layers over 64-wide features and 128-seed batches
  // on 4 devices: each device gathers up to 0.5 MB per step, above glibc's
  // default 128 KiB mmap threshold, and keeps a tape several times that.
  const Dataset ds = testing::SmallDataset(/*feature_dim=*/64);
  auto trainer = testing::MakeTrainer(ds, SingleMachineCluster(4), Strategy::kGDP,
                                      ModelKind::kSage, /*force_chunked=*/true,
                                      /*cache_bytes=*/1 << 20, /*fanouts=*/{10, 10, 10},
                                      /*batch=*/128, /*hidden=*/64);
  trainer->TrainEpoch(0);
  // Without the policy glibc trims the heap after each step and these three
  // epochs take over 5k faults. With it they take about a hundred at most:
  // a later epoch's larger sample may still grow the heap a little.
  const std::int64_t before = MinorFaults();
  for (int epoch = 1; epoch <= 3; ++epoch) trainer->TrainEpoch(epoch);
  EXPECT_LT(MinorFaults() - before, 500) << "minor faults in three steady-state epochs";
}

}  // namespace
}  // namespace apt
