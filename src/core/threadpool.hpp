// Fixed-size worker pool + parallel_for for the compute kernels.
//
// Design constraints (see DESIGN.md §8 "Threading model"):
//  - Determinism: parallel_for only hands out contiguous [begin,end) chunks.
//    Kernels built on it write disjoint output ranges per chunk and keep the
//    per-element accumulation order independent of the partition, so results
//    are bitwise identical for any thread count (including 1).
//  - No nested parallelism: a parallel_for issued from inside a pool task
//    runs inline on the calling thread. This keeps the attention-head loop
//    (outer parallel_for) from deadlocking on the matmul kernels it calls
//    (inner parallel_for) and keeps scheduling deterministic.
//  - Pool lifetime: the global pool is a lazy process-lifetime singleton
//    sized from NETLLM_THREADS (else std::thread::hardware_concurrency()).
//    `set_global_threads` resizes it between computations — never call it
//    while a parallel_for is in flight.
//  - No heap traffic per call: the body is taken by a non-owning RangeFn
//    (the caller's callable outlives the call, which blocks until every
//    chunk is done), and the pool's task queue keeps its capacity, so a
//    parallel_for allocates nothing once the pool has warmed up.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace netllm::core {

/// Non-owning reference to a callable `void(std::int64_t, std::int64_t)`:
/// two pointers, no allocation. It must not outlive the callable it was
/// made from — parallel_for's argument lives until the call returns.
class RangeFn {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, RangeFn> &&
             std::invocable<F&, std::int64_t, std::int64_t>)
  RangeFn(F&& fn) noexcept  // NOLINT: implicit, so a lambda binds directly
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, std::int64_t begin, std::int64_t end) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(begin, end);
        }) {}

  void operator()(std::int64_t begin, std::int64_t end) const { call_(obj_, begin, end); }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t, std::int64_t);
};

class ThreadPool {
 public:
  /// threads = total concurrency lanes including the calling thread;
  /// 0 picks the NETLLM_THREADS / hardware default.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrency lanes (worker threads + the caller). Always >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Re-size the pool. Must not race with an in-flight parallel_for.
  void resize(int threads);

  /// Run fn over [0,n) split into contiguous chunks across the lanes.
  /// Runs inline (single chunk on the caller) when n < grain, size() == 1,
  /// or the caller is already inside a pool task. fn(begin, end) must only
  /// touch state owned by its index range. Exceptions thrown by fn are
  /// rethrown on the calling thread (first one wins).
  void parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn);

  /// Process-lifetime pool sized from NETLLM_THREADS or hardware_concurrency.
  static ThreadPool& global();

 private:
  struct Shared;  // queue + synchronisation, owned via shared_ptr so resize
                  // can detach cleanly
  void spawn(int workers);
  void join_all();

  std::shared_ptr<Shared> shared_;
  std::vector<std::thread> workers_;
};

/// Lane count the global pool would pick with no override: NETLLM_THREADS
/// if it parses as a clean positive integer (clamped to 256; zero,
/// negatives, overflow and any trailing junk are rejected and fall through),
/// else hardware_concurrency. test_core pins the accepted/rejected forms.
int default_thread_count();

/// Current lane count of the global pool.
int global_threads();

/// Resize the global pool (n = 0 restores the default). Tests and benches
/// use this to compare serial vs threaded execution.
void set_global_threads(int n);

/// Convenience: ThreadPool::global().parallel_for(...).
void parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn);

}  // namespace netllm::core
