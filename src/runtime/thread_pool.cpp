#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/error.h"
#include "obs/trace.h"

namespace apt {

namespace {

// Threads inside a ForkJoin chunk, and pool workers in general, must not
// fork again: the pool has exactly one region slot, so nesting runs serially.
thread_local int tl_region_depth = 0;
thread_local bool tl_is_worker = false;

std::size_t EnvThreadOverride() {
  const char* env = std::getenv("APT_NUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v <= 0) return 0;
  return static_cast<std::size_t>(v);
}

// Training steps free and reallocate the same working set every step. By
// default glibc serves blocks above its dynamic mmap threshold with fresh
// mappings and trims the heap's free top after each step, so the next step
// faults its pages back in as new zero pages. Serving every block below
// glibc's own threshold ceiling (32 MiB on 64-bit) from the heap and
// trimming only above 1 GiB keeps the freed pages for the next step. Both
// are needed: a fixed trim threshold alone also freezes the mmap threshold
// at 128 KiB. Sanitizer builds replace glibc's allocator and keep theirs.
bool KeepFreedHeapPages() {
#if defined(__GLIBC__) && !defined(APT_SANITIZED)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  return true;
}

}  // namespace

// One fork-join region. Lives on the forking thread's stack: workers only
// touch it between the epoch handshake (under the pool mutex) and their
// matching active_ decrement, and ForkJoin unpublishes the job and waits for
// active_ == 0 before the frame dies. The cursor sits on its own cache line
// so chunk claiming does not false-share with the read-only job fields.
struct ThreadPool::Job {
  ChunkFn fn;
  void* ctx;
  std::int64_t num_chunks;
  alignas(64) std::atomic<std::int64_t> cursor{0};
  alignas(64) std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;

  Job(ChunkFn f, void* c, std::int64_t n) : fn(f), ctx(c), num_chunks(n) {}
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = EnvThreadOverride();
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    APT_CHECK(!stopping_) << "ThreadPool::Submit on a stopped pool";
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::InParallelRegion() {
  return tl_is_worker || tl_region_depth > 0;
}

void ThreadPool::RunChunks(Job& job) {
  ++tl_region_depth;
  for (;;) {
    const std::int64_t c = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    // After a failure, keep claiming (to drain the cursor fast) but skip the
    // bodies: ParallelFor promises at-most-once execution per chunk anyway.
    if (job.failed.load(std::memory_order_relaxed)) continue;
    try {
      job.fn(job.ctx, c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  --tl_region_depth;
}

void ThreadPool::ForkJoin(std::int64_t num_chunks, ChunkFn fn, void* ctx) {
  if (num_chunks <= 0) return;
  if (workers_.empty() || InParallelRegion()) {
    // Serial: exceptions propagate straight to the caller (for a nested
    // region, that is the enclosing chunk's catch block).
    for (std::int64_t c = 0; c < num_chunks; ++c) fn(ctx, c);
    return;
  }
  APT_OBS_SCOPE("fork_join", "runtime",
                {{"chunks", static_cast<double>(num_chunks), nullptr}});
  std::lock_guard<std::mutex> fork_lock(fork_mutex_);
  Job job(fn, ctx, num_chunks);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  cv_.notify_all();
  RunChunks(job);  // the forking thread is one of the lanes
  {
    // Unpublish first so no further worker can enter, then wait out the ones
    // already inside: `job` lives on this stack frame.
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = nullptr;
  }
  for (;;) {
    const std::int64_t a = active_.load(std::memory_order_acquire);
    if (a == 0) break;
    active_.wait(a, std::memory_order_acquire);
  }
  if (job.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(job.error);
  }
}

void ThreadPool::WorkerLoop() {
  tl_is_worker = true;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::function<void()> task;
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return stopping_ || !tasks_.empty() ||
               (job_ != nullptr && epoch_ != seen_epoch);
      });
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      } else if (job_ != nullptr && epoch_ != seen_epoch) {
        job = job_;
        seen_epoch = epoch_;
        // Register inside the lock: ForkJoin clears job_ under the same
        // lock, so it either sees this worker in active_ or the worker
        // never entered.
        active_.fetch_add(1, std::memory_order_relaxed);
      } else if (stopping_) {
        return;
      } else {
        continue;  // spurious wake
      }
    }
    if (task) {
      task();
    } else {
      RunChunks(*job);
      active_.fetch_sub(1, std::memory_order_release);
      active_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  [[maybe_unused]] static const bool heap_kept = KeepFreedHeapPages();
  static ThreadPool pool;
  return pool;
}

}  // namespace apt
