// Persistent worker pool for data-parallel loops. A ThreadPool keeps a
// fixed set of workers parked on a condition variable; ParallelFor chops
// [0, count) into fixed-size chunks that workers (and the calling thread)
// claim off an atomic counter. Compared to spawning std::threads per call
// (the old ParallelChunks), dispatch costs a wakeup instead of a clone().
//
// Determinism: chunk *boundaries* depend only on (count, grain), never on
// the number of threads, and every index is processed exactly once. Any
// kernel whose chunks write disjoint outputs (all of nn's row-parallel
// kernels, the evaluator's per-user ranking) therefore produces bitwise
// identical results for 1 and N threads.
#ifndef IMSR_UTIL_THREAD_POOL_H_
#define IMSR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/range_fn.h"

namespace imsr::util {

class FlagSet;

class ThreadPool {
 public:
  // Starts `threads - 1` workers (the caller participates in every
  // ParallelFor, so `threads <= 1` means a no-worker, fully inline pool).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Threads participating in a ParallelFor (workers + calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes fn(begin, end) over disjoint chunks of [0, count), each at
  // most `grain` long (grain <= 0 picks ~4 chunks per thread). Blocks
  // until every chunk ran, so the RangeFn's borrowed callable outlives
  // the region. Exceptions thrown by fn are rethrown here (first one
  // wins; remaining chunks are skipped). Nested calls from inside fn run
  // inline on the calling thread — safe, just serial.
  void ParallelFor(int64_t count, int64_t grain, RangeFn fn);

 private:
  // One parallel region. Heap-allocated and shared with workers so a slow
  // worker that wakes after the region retired only touches dead atomics,
  // never freed memory.
  struct Dispatch {
    RangeFn fn;
    int64_t count = 0;
    int64_t grain = 0;
    int64_t num_chunks = 0;
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> done_chunks{0};
    std::atomic<bool> has_error{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void WorkerLoop();
  void RunChunks(Dispatch& dispatch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;  // guards dispatch_, generation_, stop_
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Dispatch> dispatch_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::mutex caller_mutex_;  // serializes concurrent external callers
};

// Process-wide pool, created lazily with the configured thread count.
// Kernels in nn/ and eval/ dispatch large loops through this pool.
ThreadPool& GlobalPool();

// Resizes the process-wide pool (>= 1). Must not race with an in-flight
// ParallelFor on the pool; call it at configuration time.
void SetGlobalThreadCount(int threads);

// Current (or to-be-created) size of the process-wide pool.
int GlobalThreadCount();

// The --threads=N flag of every binary: RegisterThreadFlag adds it
// (N >= 0, 0 = one thread per hardware thread) and ApplyThreadFlag sizes
// the process-wide pool from it after the parse. Defined in
// thread_flag.cc, so programs that size the pool directly do not link
// the flag parser.
void RegisterThreadFlag(FlagSet* flags);
void ApplyThreadFlag(const FlagSet& flags);

}  // namespace imsr::util

#endif  // IMSR_UTIL_THREAD_POOL_H_
