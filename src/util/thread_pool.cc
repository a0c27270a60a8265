#include "util/thread_pool.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace imsr::util {
namespace {

// Depth of ParallelFor frames on this thread. Nested regions (a kernel
// calling ParallelFor from inside an outer ParallelFor body) run inline:
// the pool's workers are already busy with the outer region, and blocking
// on them from a worker would deadlock.
thread_local int g_parallel_depth = 0;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(1, threads) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Dispatch> dispatch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || (dispatch_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      dispatch = dispatch_;
      seen_generation = generation_;
    }
    RunChunks(*dispatch);
  }
}

void ThreadPool::RunChunks(Dispatch& dispatch) {
  for (;;) {
    const int64_t index =
        dispatch.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (index >= dispatch.num_chunks) return;
    // After a chunk threw, remaining chunks are claimed but skipped so
    // done_chunks still reaches num_chunks and the caller wakes up.
    if (!dispatch.has_error.load(std::memory_order_relaxed)) {
      const int64_t begin = index * dispatch.grain;
      const int64_t end = std::min(dispatch.count, begin + dispatch.grain);
      IMSR_OBS_ONLY(Stopwatch task_timer;)
      ++g_parallel_depth;
      try {
        dispatch.fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(dispatch.error_mutex);
        if (!dispatch.error) dispatch.error = std::current_exception();
        dispatch.has_error.store(true, std::memory_order_relaxed);
      }
      --g_parallel_depth;
      IMSR_HISTOGRAM_RECORD("pool/task_latency_ms",
                            task_timer.ElapsedMillis());
    }
    const int64_t done = dispatch.done_chunks.fetch_add(1) + 1;
    if (done == dispatch.num_chunks) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(int64_t count, int64_t grain, RangeFn fn) {
  if (count <= 0) return;
  if (grain <= 0) {
    grain = std::max<int64_t>(1, count / (4 * thread_count()));
  }
  const int64_t num_chunks = (count + grain - 1) / grain;
  if (workers_.empty() || num_chunks <= 1 || g_parallel_depth > 0) {
    ++g_parallel_depth;
    try {
      fn(0, count);
    } catch (...) {
      --g_parallel_depth;
      throw;
    }
    --g_parallel_depth;
    return;
  }

  // One region at a time; a second external caller parks here and keeps
  // determinism (its own chunk boundaries are unaffected). Pool metrics
  // are recorded only on this dispatched path — the inline fast path
  // above stays instrumentation-free so single-thread kernel latency is
  // unperturbed.
  std::lock_guard<std::mutex> caller_lock(caller_mutex_);
  IMSR_COUNTER_ADD("pool/regions", 1);
  IMSR_GAUGE_SET("pool/queue_depth", static_cast<double>(num_chunks));
  IMSR_OBS_ONLY(Stopwatch region_timer;)
  auto dispatch = std::make_shared<Dispatch>();
  dispatch->fn = fn;
  dispatch->count = count;
  dispatch->grain = grain;
  dispatch->num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dispatch_ = dispatch;
    ++generation_;
  }
  wake_cv_.notify_all();
  RunChunks(*dispatch);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return dispatch->done_chunks.load() == dispatch->num_chunks;
    });
    dispatch_ = nullptr;
  }
  IMSR_HISTOGRAM_RECORD("pool/region_latency_ms",
                        region_timer.ElapsedMillis());
  IMSR_GAUGE_SET("pool/queue_depth", 0.0);
  if (dispatch->error) std::rethrow_exception(dispatch->error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;       // guarded by g_pool_mutex
int g_thread_count = 0;                   // 0 = not yet resolved

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    if (g_thread_count <= 0) g_thread_count = DefaultThreadCount();
    g_pool = std::make_unique<ThreadPool>(g_thread_count);
  }
  return *g_pool;
}

void SetGlobalThreadCount(int threads) {
  IMSR_CHECK_GE(threads, 1);
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_thread_count == threads) return;
  g_pool.reset();  // joins idle workers; no region may be in flight
  g_thread_count = threads;
  g_pool = std::make_unique<ThreadPool>(threads);
}

int GlobalThreadCount() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_thread_count <= 0) g_thread_count = DefaultThreadCount();
  return g_thread_count;
}

}  // namespace imsr::util
