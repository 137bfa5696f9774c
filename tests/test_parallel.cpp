// Threaded-vs-serial equivalence suite for the parallel kernel layer:
// ThreadPool semantics, blocked matmul kernels against an independent naive
// reference, tensor-op forward/backward equality across thread counts, a
// MiniGPT train-step determinism check, and a count of the heap
// allocations a served kernel call makes (none). Built to run under
// -DNETLLM_SANITIZE=thread as well (ctest -L parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/optim.hpp"
#include "tensor/quants.hpp"
#include "tensor/tensor.hpp"

namespace nc = netllm::core;
namespace nq = netllm::tensor::quant;
namespace nt = netllm::tensor;
namespace nk = netllm::tensor::kernels;
namespace nl = netllm::llm;
using netllm::core::Rng;

namespace {

/// Restores the default global pool size when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { nc::set_global_threads(0); }
};

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

// Independent ground truth for the three matmul variants: j-major naive
// loops with a double accumulator — deliberately a different loop structure
// and precision than the production kernels.
void matmul_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) acc += double(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void matmul_bt_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) acc += double(a[i * k + p]) * b[j * k + p];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void matmul_at_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c[p * n + j];
      for (std::int64_t i = 0; i < m; ++i) acc += double(a[i * k + p]) * b[i * n + j];
      c[p * n + j] = static_cast<float>(acc);
    }
  }
}

void expect_close_to_ref(const std::vector<float>& got, const std::vector<float>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Acceptance tolerance: 1e-5 relative (the float kernels differ from the
    // double-accumulated reference only by rounding).
    ASSERT_NEAR(got[i], ref[i], 1e-5 * (std::abs(ref[i]) + 1.0)) << "at index " << i;
  }
}

}  // namespace

// ---- ThreadPool semantics ----

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadGuard guard;
  nc::set_global_threads(8);
  std::vector<int> hits(10000, 0);
  nc::parallel_for(10000, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, SmallRangeRunsInlineOnCaller) {
  ThreadGuard guard;
  nc::set_global_threads(8);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  nc::parallel_for(7, 64, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 7);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  std::atomic<std::int64_t> total{0};
  nc::parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto inner_thread = std::this_thread::get_id();
      nc::parallel_for(100, 1, [&](std::int64_t ib, std::int64_t ie) {
        // Nested call must stay on the same thread (inline, no re-queue).
        EXPECT_EQ(std::this_thread::get_id(), inner_thread);
        total += ie - ib;
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, ResizeChangesLaneCount) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  EXPECT_EQ(nc::global_threads(), 4);
  nc::set_global_threads(1);
  EXPECT_EQ(nc::global_threads(), 1);
  nc::set_global_threads(0);  // back to the NETLLM_THREADS / hardware default
  EXPECT_EQ(nc::global_threads(), nc::default_thread_count());
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  EXPECT_THROW(nc::parallel_for(1000, 1,
                                [&](std::int64_t b, std::int64_t) {
                                  if (b > 0) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

// ---- kernel equivalence: threaded vs serial vs independent reference ----

TEST(ParallelKernels, RandomShapesMatchSerialBitwiseAndReferenceWithinTol) {
  ThreadGuard guard;
  Rng rng(123);
  for (int trial = 0; trial < 24; ++trial) {
    // Mix of tiny shapes (inline path) and ones past the row-grain so the
    // pool actually dispatches; a few fixed larger shapes exercise the
    // k-blocking across tile boundaries.
    std::int64_t m, k, n;
    if (trial < 18) {
      m = rng.randint(1, 40);
      k = rng.randint(1, 70);
      n = rng.randint(1, 40);
    } else {
      m = 129;
      k = 65 + trial;
      n = 33;
    }
    auto a = random_vec(m * k, rng);
    auto bt = random_vec(n * k, rng);  // also serves as B^T operand [n,k]
    auto b = random_vec(k * n, rng);
    auto bm = random_vec(m * n, rng);  // B operand for A^T * B
    const auto c0 = random_vec(m * n, rng);  // accumulate into non-zero C
    const auto c0_at = random_vec(k * n, rng);

    auto serial = c0;
    nk::matmul_accum_serial(a.data(), b.data(), serial.data(), m, k, n);
    auto serial_bt = c0;
    nk::matmul_bt_accum_serial(a.data(), bt.data(), serial_bt.data(), m, k, n);
    auto serial_at = c0_at;
    nk::matmul_at_accum_serial(a.data(), bm.data(), serial_at.data(), m, k, n);

    auto ref = c0;
    matmul_ref(a.data(), b.data(), ref.data(), m, k, n);
    expect_close_to_ref(serial, ref);
    auto ref_bt = c0;
    matmul_bt_ref(a.data(), bt.data(), ref_bt.data(), m, k, n);
    expect_close_to_ref(serial_bt, ref_bt);
    auto ref_at = c0_at;
    matmul_at_ref(a.data(), bm.data(), ref_at.data(), m, k, n);
    expect_close_to_ref(serial_at, ref_at);

    for (int threads : {1, 2, 8}) {
      nc::set_global_threads(threads);
      auto c = c0;
      nk::matmul_accum(a.data(), b.data(), c.data(), m, k, n);
      ASSERT_EQ(c, serial) << "matmul_accum m=" << m << " k=" << k << " n=" << n
                           << " threads=" << threads;
      auto cbt = c0;
      nk::matmul_bt_accum(a.data(), bt.data(), cbt.data(), m, k, n);
      ASSERT_EQ(cbt, serial_bt) << "matmul_bt_accum threads=" << threads;
      auto cat = c0_at;
      nk::matmul_at_accum(a.data(), bm.data(), cat.data(), m, k, n);
      ASSERT_EQ(cat, serial_at) << "matmul_at_accum threads=" << threads;
    }
  }
}

// ---- tensor ops: forward + backward across thread counts ----

namespace {

struct MatmulRun {
  float loss;
  std::vector<float> ga, gb;
};

MatmulRun run_matmul_graph(int threads) {
  nc::set_global_threads(threads);
  Rng rng(7);
  auto a = nt::Tensor::randn({48, 32}, rng, 1.0f, true);
  auto b = nt::Tensor::randn({32, 40}, rng, 1.0f, true);
  auto loss = nt::mean_all(nt::matmul(a, b));
  loss.backward();
  return {loss.item(), {a.grad().begin(), a.grad().end()}, {b.grad().begin(), b.grad().end()}};
}

}  // namespace

TEST(ParallelTensor, MatmulForwardBackwardIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto t1 = run_matmul_graph(1);
  const auto t4 = run_matmul_graph(4);
  EXPECT_EQ(t1.loss, t4.loss);
  EXPECT_EQ(t1.ga, t4.ga);
  EXPECT_EQ(t1.gb, t4.gb);
}

namespace {

std::tuple<float, std::vector<float>, std::vector<float>> run_elementwise_graph(int threads) {
  nc::set_global_threads(threads);
  Rng rng(5);
  // 120k elements — past the elementwise grain, so chunked dispatch engages.
  auto a = nt::Tensor::randn({400, 300}, rng, 1.0f, true);
  auto b = nt::Tensor::randn({400, 300}, rng, 1.0f, true);
  auto y = nt::mul(nt::gelu(a), nt::sigmoid_t(b));
  auto loss = nt::mean_all(y);
  loss.backward();
  return {loss.item(),
          {a.grad().begin(), a.grad().end()},
          {b.grad().begin(), b.grad().end()}};
}

}  // namespace

TEST(ParallelTensor, LargeElementwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto t1 = run_elementwise_graph(1);
  const auto t8 = run_elementwise_graph(8);
  EXPECT_EQ(std::get<0>(t1), std::get<0>(t8));
  EXPECT_EQ(std::get<1>(t1), std::get<1>(t8));
  EXPECT_EQ(std::get<2>(t1), std::get<2>(t8));
}

// ---- attention: concurrent head evaluation ----

namespace {

std::pair<std::vector<float>, std::vector<float>> run_attention(int threads) {
  nc::set_global_threads(threads);
  Rng rng(11);
  netllm::nn::MultiHeadAttention attn(64, 8, /*causal=*/true, rng);
  Rng drng(12);
  auto x = nt::Tensor::randn({24, 64}, drng, 1.0f, true);
  auto y = attn.forward(x);
  auto loss = nt::mean_all(y);
  loss.backward();
  return {{y.data().begin(), y.data().end()}, {x.grad().begin(), x.grad().end()}};
}

}  // namespace

TEST(ParallelAttention, ConcurrentHeadsIdenticalToSerial) {
  ThreadGuard guard;
  const auto t1 = run_attention(1);
  const auto t4 = run_attention(4);
  EXPECT_EQ(t1.first, t4.first);
  EXPECT_EQ(t1.second, t4.second);
}

// ---- satellite: MiniGPT train-step gradient equivalence ----

namespace {

std::vector<float> run_minigpt_training(int threads) {
  nc::set_global_threads(threads);
  Rng rng(21);
  nl::MiniGptConfig cfg;
  cfg.vocab = nl::Tokenizer().vocab_size();
  cfg.d_model = 32;
  cfg.n_heads = 4;
  cfg.n_layers = 2;
  cfg.d_ff = 64;
  cfg.max_seq = 48;
  nl::MiniGpt model(cfg, rng);
  nl::Tokenizer tok;
  auto ids = tok.encode("abc 123 abc 123 abc 123", true, true);
  nt::Adam opt(model.trainable_parameters(), 1e-3f);
  std::vector<float> losses;
  for (int step = 0; step < 10; ++step) {
    opt.zero_grad();
    auto loss = model.lm_loss(ids);
    losses.push_back(loss.item());
    loss.backward();
    opt.clip_grad_norm(1.0);
    opt.step();
  }
  return losses;
}

}  // namespace

TEST(ParallelTraining, MiniGptFirstTenLossesIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto l1 = run_minigpt_training(1);
  const auto l4 = run_minigpt_training(4);
  ASSERT_EQ(l1.size(), l4.size());
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i], l4[i]) << "loss diverged at step " << i;
  }
}

// ---- served kernel calls allocate nothing ----

namespace {

/// Every operator new of this test binary, on any thread.
std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler pairs each delete with a new rather than
// seeing free() on a pointer it knows came from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// operator new calls made by ten runs of `fn` after three warm-up runs
/// (which size the per-thread buffers and the pool's task queue).
template <typename Fn>
std::int64_t allocations_per_ten_calls(Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  const auto before = g_allocations.load();
  for (int i = 0; i < 10; ++i) fn();
  return g_allocations.load() - before;
}

}  // namespace

TEST(ParallelKernels, ServedMatmulAndAttentionCallsMakeNoHeapAllocation) {
  ThreadGuard guard;
  Rng rng(0xa110c);
  const std::int64_t d = 64, kb = nq::blocks_per_row(d);
  const auto a = random_vec(64 * d, rng), b = random_vec(d * d, rng);
  std::vector<float> c(static_cast<std::size_t>(64 * d));
  std::vector<float> x = random_vec(d, rng);
  std::vector<float> ascales(static_cast<std::size_t>(kb));
  std::vector<std::uint8_t> acodes(static_cast<std::size_t>(kb * nq::kBlock));
  nq::quantize_row(nq::Dtype::kQ8_0, x.data(), d, ascales.data(), acodes.data());
  const auto w = nq::quantize(nq::Dtype::kQ8_0, b.data(), d, d);
  // One decode step of a 4-head, 64-wide model against 30 cached rows.
  const std::int64_t len = 31, dh = 16;
  const auto q = random_vec(d, rng), k = random_vec(len * d, rng), v = random_vec(len * d, rng);
  std::vector<float> ctx(static_cast<std::size_t>(d));
  for (int threads : {1, 4}) {
    nc::set_global_threads(threads);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(allocations_per_ten_calls([&] {
                nk::matmul_accum(a.data(), b.data(), c.data(), 1, d, d);
              }),
              0)
        << "matmul_accum 1x64x64 " << where;
    // 64 rows split into pool chunks at 4 threads: the queue reuses its storage.
    EXPECT_EQ(allocations_per_ten_calls([&] {
                nk::matmul_accum(a.data(), b.data(), c.data(), 64, d, d);
              }),
              0)
        << "matmul_accum 64x64x64 " << where;
    EXPECT_EQ(allocations_per_ten_calls([&] {
                nk::matmul_q8_accum(reinterpret_cast<const std::int8_t*>(acodes.data()),
                                    ascales.data(),
                                    reinterpret_cast<const std::int8_t*>(w.codes.data()),
                                    w.scales.data(), c.data(), 1, kb, d);
              }),
              0)
        << "matmul_q8_accum 1x64x64 " << where;
    EXPECT_EQ(allocations_per_ten_calls([&] {
                nk::attend_head(q.data(), k.data(), v.data(), ctx.data(), d, dh, 1, len);
              }),
              0)
        << "attend_head " << where;
  }
}
