#include "core/threadpool.hpp"

#include "core/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>

namespace netllm::core {

namespace {

// True while this thread is executing a parallel_for chunk; nested
// parallel_for calls then run inline instead of re-entering the queue.
thread_local bool tl_in_parallel = false;

struct ScopedInParallel {
  // Save/restore rather than set/clear: an inline nested parallel_for also
  // opens a scope, and on exit the thread must still count as in-parallel
  // until the outermost chunk finishes.
  bool prev = tl_in_parallel;
  ScopedInParallel() { tl_in_parallel = true; }
  ~ScopedInParallel() { tl_in_parallel = prev; }
};

/// One parallel_for call's completion state, on the caller's stack.
struct Batch {
  RangeFn fn;
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t remaining;
  std::exception_ptr error;
};

/// One chunk of a batch.
struct Task {
  Batch* batch;
  std::int64_t begin, end;
};

/// Runs one chunk, capturing its exception into the batch.
void run_chunk(Batch& batch, std::int64_t begin, std::int64_t end) {
  try {
    ScopedInParallel scope;
    batch.fn(begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> elk(batch.mu);
    if (!batch.error) batch.error = std::current_exception();
  }
}

}  // namespace

struct ThreadPool::Shared {
  std::mutex mu;
  std::condition_variable cv_work;
  // FIFO of pending chunks: tasks[head:] are queued. Emptied by clear(), so
  // the vector keeps its capacity and a warmed-up pool never allocates.
  std::vector<Task> tasks;
  std::size_t head = 0;
  bool stop = false;
};

ThreadPool::ThreadPool(int threads) : shared_(std::make_shared<Shared>()) {
  if (threads <= 0) threads = default_thread_count();
  spawn(threads - 1);
}

ThreadPool::~ThreadPool() { join_all(); }

void ThreadPool::spawn(int workers) {
  workers_.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([shared = shared_] {
      for (;;) {
        Task task{};
        {
          std::unique_lock<std::mutex> lk(shared->mu);
          const auto pending = [&] { return shared->head < shared->tasks.size(); };
          shared->cv_work.wait(lk, [&] { return shared->stop || pending(); });
          if (shared->stop && !pending()) return;
          task = shared->tasks[shared->head++];
          if (!pending()) {
            shared->tasks.clear();
            shared->head = 0;
          }
        }
        Batch& batch = *task.batch;
        run_chunk(batch, task.begin, task.end);
        {
          // Notify while holding the lock: once the caller observes
          // remaining == 0 it destroys the batch, so the cv must not be
          // touched after the mutex is released.
          std::lock_guard<std::mutex> dlk(batch.mu);
          --batch.remaining;
          batch.cv.notify_one();
        }
      }
    });
  }
}

void ThreadPool::join_all() {
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    shared_->stop = true;
  }
  shared_->cv_work.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::resize(int threads) {
  if (threads <= 0) threads = default_thread_count();
  if (threads == size()) return;
  join_all();
  shared_ = std::make_shared<Shared>();
  spawn(threads - 1);
}

void ThreadPool::parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const auto lanes = static_cast<std::int64_t>(size());
  if (lanes <= 1 || n < grain || tl_in_parallel) {
    ScopedInParallel scope;
    fn(0, n);
    return;
  }
  const std::int64_t nchunks = std::min(lanes, (n + grain - 1) / grain);
  Batch batch{fn, {}, {}, nchunks - 1, nullptr};

  // Chunks 1..nchunks-1 go to the workers; the caller runs chunk 0 and then
  // blocks until the rest drain. `batch` (and the callable its RangeFn
  // refers to) outlive all tasks because the caller does not return before
  // remaining == 0.
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    for (std::int64_t c = 1; c < nchunks; ++c) {
      shared_->tasks.push_back({&batch, n * c / nchunks, n * (c + 1) / nchunks});
    }
  }
  shared_->cv_work.notify_all();

  run_chunk(batch, 0, n / nchunks);

  {
    // Attribute the caller's idle time waiting on workers (its own chunk is
    // done) — the lane-imbalance signal for the pool.wait trace phase.
    trace::Span wait_span(trace::Phase::kPoolWait);
    std::unique_lock<std::mutex> lk(batch.mu);
    batch.cv.wait(lk, [&] { return batch.remaining == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

int default_thread_count() {
  if (const char* env = std::getenv("NETLLM_THREADS")) {
    // Strict parse: the earlier std::atoi silently returned 0 for garbage
    // ("abc"), accepted trailing junk ("4x" -> 4 under strtol semantics
    // would be wrong too), and treated explicit 0 / negatives as "unset".
    // Anything that is not a clean positive integer now falls through to
    // the hardware default; values above the pool cap clamp to 256.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    const bool clean = end != env && *end == '\0' && errno != ERANGE;
    if (clean && v >= 1) return static_cast<int>(std::min(v, 256L));
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int global_threads() { return ThreadPool::global().size(); }

void set_global_threads(int n) { ThreadPool::global().resize(n); }

void parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn) {
  ThreadPool::global().parallel_for(n, grain, fn);
}

}  // namespace netllm::core
