// Durable-session tests: the kill/resume bitwise-equivalence guarantee for
// all three adapt() loops, graceful SIGINT/SIGTERM drain, torn-checkpoint
// fallback, retention GC, and fingerprint-mismatch rejection.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/fault.hpp"
#include "core/signal.hpp"
#include "core/threadpool.hpp"
#include "llm/zoo.hpp"
#include "netllm/api.hpp"

namespace ad = netllm::adapt;
namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace vp = netllm::vp;
namespace fault = netllm::core::fault;
namespace fs = std::filesystem;
using netllm::core::Rng;

namespace {

std::shared_ptr<netllm::llm::MiniGpt> tiny_llm(std::uint64_t seed = 7) {
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.max_seq = 112;
  Rng rng(seed);
  return std::make_shared<netllm::llm::MiniGpt>(cfg, rng);
}

fs::path session_dir(const std::string& name) {
  const auto p = fs::temp_directory_path() / ("netllm_sess_" + name);
  fs::remove_all(p);
  return p;
}

using ParamImage = std::vector<std::vector<float>>;

ParamImage snap(const netllm::nn::Module& m) {
  ParamImage out;
  for (const auto& [name, t] : m.named_parameters()) {
    auto d = t.data();
    out.emplace_back(d.begin(), d.end());
  }
  return out;
}

void expect_bitwise_equal(const ParamImage& a, const ParamImage& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "param " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "param " << i << " differs";
  }
}

void arm_kill_after(int hits) {
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::Throw;
  plan.after = hits;  // the (hits+1)-th training-step hit throws mid-step
  fault::arm("adapter.step", plan);
}

// ---- task fixtures: identical construction on every call, so a resumed
// adapter starts from the same initialisation as the killed one ----

std::vector<vp::VpSample> vp_data() {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, 8);
}

std::unique_ptr<ad::VpAdapter> make_vp() {
  Rng rng(11);
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  return std::make_unique<ad::VpAdapter>(tiny_llm(), cfg, rng);
}

std::vector<ad::AbrTrajectory> abr_pool() {
  auto setting = abr::abr_default_train();
  setting.num_traces = 2;
  netllm::baselines::Bba bba;
  return ad::api::RL_Collect(bba, setting, 1, 0.1, 3);
}

std::unique_ptr<ad::AbrAdapter> make_abr() {
  Rng rng(12);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  return std::make_unique<ad::AbrAdapter>(tiny_llm(), cfg, rng);
}

std::vector<ad::CjsTrajectory> cjs_pool() {
  cjs::WorkloadConfig base;
  base.num_job_requests = 6;
  base.executor_units_k = 4;
  base.scale = 1.0;
  base.seed = 5;
  netllm::baselines::FairScheduler fair;
  return ad::api::RL_Collect(fair, base, 2, 7);
}

std::unique_ptr<ad::CjsAdapter> make_cjs() {
  Rng rng(13);
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  return std::make_unique<ad::CjsAdapter>(tiny_llm(), cfg, rng);
}

constexpr int kSteps = 16;
constexpr float kLr = 1e-3f;
constexpr std::uint64_t kSeed = 21;

class SessionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    netllm::core::clear_stop();
    netllm::core::set_global_threads(1);
  }
};

/// adapt(2N) ≡ adapt(N) -> kill -> resume -> adapt(N): run the uninterrupted
/// reference, then a durable run killed mid-step via the "adapter.step"
/// fault site, then a fresh adapter resuming the same directory. Final
/// weights must match the reference bitwise.
template <typename MakeFn, typename PoolT>
void kill_resume_roundtrip(MakeFn make, const PoolT& pool, const std::string& tag,
                           int kill_after_hits, int threads) {
  netllm::core::set_global_threads(threads);
  auto ref_model = make();
  ref_model->adapt(pool, kSteps, kLr, kSeed);
  const auto reference = snap(*ref_model);

  ad::SessionOptions sess;
  sess.dir = session_dir(tag + "_t" + std::to_string(threads)).string();
  sess.checkpoint_every = 3;

  {
    auto victim = make();
    arm_kill_after(kill_after_hits);
    EXPECT_THROW(victim->adapt(pool, kSteps, kLr, kSeed, sess), fault::FaultInjected);
    fault::disarm_all();
  }
  ASSERT_TRUE(ad::TrainSession::latest_step(sess.dir).has_value());

  auto resumed = make();
  const auto stats = resumed->adapt(pool, kSteps, kLr, kSeed, sess);
  EXPECT_GT(stats.start_step, 0);
  EXPECT_FALSE(stats.interrupted);
  expect_bitwise_equal(snap(*resumed), reference);
}

}  // namespace

TEST_F(SessionTest, VpKillResumeBitwiseEquivalentSerial) {
  kill_resume_roundtrip(make_vp, vp_data(), "vp", 10, /*threads=*/1);
}

TEST_F(SessionTest, VpKillResumeBitwiseEquivalentThreaded) {
  kill_resume_roundtrip(make_vp, vp_data(), "vp", 10, /*threads=*/8);
}

TEST_F(SessionTest, AbrKillResumeBitwiseEquivalentSerial) {
  // ABR hits "adapter.step" kBatch=3 times per step, so 13 hits kills
  // mid-batch in step 4 — after the step-3 checkpoint.
  kill_resume_roundtrip(make_abr, abr_pool(), "abr", 13, /*threads=*/1);
}

TEST_F(SessionTest, AbrKillResumeBitwiseEquivalentThreaded) {
  kill_resume_roundtrip(make_abr, abr_pool(), "abr", 13, /*threads=*/8);
}

TEST_F(SessionTest, CjsKillResumeBitwiseEquivalentSerial) {
  kill_resume_roundtrip(make_cjs, cjs_pool(), "cjs", 10, /*threads=*/1);
}

TEST_F(SessionTest, CjsKillResumeBitwiseEquivalentThreaded) {
  kill_resume_roundtrip(make_cjs, cjs_pool(), "cjs", 10, /*threads=*/8);
}

TEST_F(SessionTest, StopRequestDrainsAndResumeMatchesReference) {
  const auto data = vp_data();
  auto ref_model = make_vp();
  ref_model->adapt(data, kSteps, kLr, kSeed);
  const auto reference = snap(*ref_model);

  ad::SessionOptions sess;
  sess.dir = session_dir("vp_drain").string();
  sess.checkpoint_every = 100;  // only the drain checkpoint is written

  netllm::core::request_stop();  // pending stop: drain after the first step
  auto victim = make_vp();
  const auto st = victim->adapt(data, kSteps, kLr, kSeed, sess);
  EXPECT_TRUE(st.interrupted);
  EXPECT_EQ(st.checkpoints, 1);
  ASSERT_EQ(ad::TrainSession::latest_step(sess.dir), std::optional<int>(1));
  netllm::core::clear_stop();

  auto resumed = make_vp();
  const auto rs = resumed->adapt(data, kSteps, kLr, kSeed, sess);
  EXPECT_EQ(rs.start_step, 1);
  expect_bitwise_equal(snap(*resumed), reference);
}

TEST_F(SessionTest, SigtermMidAdaptProducesLoadableCheckpointAndCleanExit) {
  const auto data = vp_data();
  ad::SessionOptions sess;
  sess.dir = session_dir("vp_sigterm").string();
  sess.checkpoint_every = 1000000;  // force the drain path to write it

  auto model = make_vp();
  ad::AdaptStats st;
  std::thread trainer(
      [&] { st = model->adapt(data, 1000000, kLr, kSeed, sess); });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::raise(SIGTERM);  // handler installed by the session inside adapt()
  trainer.join();

  EXPECT_TRUE(st.interrupted);
  EXPECT_GE(st.checkpoints, 1);
  const auto latest = ad::TrainSession::latest_step(sess.dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_GT(*latest, 0);
  // The drain checkpoint is a valid session record end to end.
  for (const auto& entry : fs::directory_iterator(sess.dir)) {
    netllm::tensor::SessionSections sections;
    const auto report =
        netllm::tensor::load_params_report(entry.path().string(), {}, nullptr, &sections);
    EXPECT_TRUE(report.has_session());
  }
}

TEST_F(SessionTest, DrainCheckpointRetriesThroughTruncatedWrite) {
  const auto data = vp_data();
  auto ref_model = make_vp();
  ref_model->adapt(data, kSteps, kLr, kSeed);
  const auto reference = snap(*ref_model);

  ad::SessionOptions sess;
  sess.dir = session_dir("vp_drain_retry").string();
  sess.checkpoint_every = 100;

  netllm::core::request_stop();
  fault::FaultPlan torn;
  torn.kind = fault::FaultKind::TruncateIo;
  torn.truncate_to = 8;
  torn.times = 1;  // first drain attempt tears; the retry goes through
  fault::arm("serialize.write", torn);
  auto victim = make_vp();
  const auto st = victim->adapt(data, kSteps, kLr, kSeed, sess);
  fault::disarm_all();
  EXPECT_TRUE(st.interrupted);
  netllm::core::clear_stop();

  auto resumed = make_vp();
  resumed->adapt(data, kSteps, kLr, kSeed, sess);
  expect_bitwise_equal(snap(*resumed), reference);
}

TEST_F(SessionTest, TornNewestCheckpointFallsBackToPrevious) {
  const auto data = vp_data();
  auto ref_model = make_vp();
  ref_model->adapt(data, kSteps, kLr, kSeed);
  const auto reference = snap(*ref_model);

  ad::SessionOptions sess;
  sess.dir = session_dir("vp_torn").string();
  sess.checkpoint_every = 3;
  sess.keep_last = 8;  // keep everything: the test needs an older fallback

  {
    auto victim = make_vp();
    arm_kill_after(10);
    EXPECT_THROW(victim->adapt(data, kSteps, kLr, kSeed, sess), fault::FaultInjected);
    fault::disarm_all();
  }
  // Externally damage the newest checkpoint (e.g. a disk fault after the
  // atomic rename): resume must skip it and replay from the previous one.
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(sess.dir)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 2u);
  {
    std::ifstream is(files.back(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
    std::ofstream os(files.back(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  auto resumed = make_vp();
  const auto stats = resumed->adapt(data, kSteps, kLr, kSeed, sess);
  EXPECT_GT(stats.start_step, 0);
  expect_bitwise_equal(snap(*resumed), reference);
}

TEST_F(SessionTest, RetentionKeepsNewestKAndNeverTheLatest) {
  const auto data = vp_data();
  ad::SessionOptions sess;
  sess.dir = session_dir("vp_gc").string();
  sess.checkpoint_every = 2;
  sess.keep_last = 3;

  auto model = make_vp();
  const auto st = model->adapt(data, kSteps, kLr, kSeed, sess);
  EXPECT_GT(st.checkpoints, 3);  // more were written than survive GC

  std::size_t count = 0;
  for (const auto& e : fs::directory_iterator(sess.dir)) {
    (void)e;
    ++count;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(ad::TrainSession::latest_step(sess.dir), std::optional<int>(kSteps));
}

TEST_F(SessionTest, FinishedRunResumesAsAlreadyDone) {
  const auto data = vp_data();
  ad::SessionOptions sess;
  sess.dir = session_dir("vp_done").string();
  sess.checkpoint_every = 5;

  auto model = make_vp();
  model->adapt(data, kSteps, kLr, kSeed, sess);
  const auto finished = snap(*model);

  auto again = make_vp();
  const auto st = again->adapt(data, kSteps, kLr, kSeed, sess);
  EXPECT_EQ(st.start_step, kSteps);  // no steps replayed
  EXPECT_EQ(st.checkpoints, 0);
  expect_bitwise_equal(snap(*again), finished);
}

TEST_F(SessionTest, FingerprintMismatchIsRejectedByName) {
  const auto data = vp_data();
  ad::SessionOptions sess;
  sess.dir = session_dir("vp_mismatch").string();
  sess.checkpoint_every = 4;

  auto model = make_vp();
  model->adapt(data, kSteps, kLr, kSeed, sess);

  auto other = make_vp();
  EXPECT_THROW(other->adapt(data, kSteps, kLr, kSeed + 1, sess), ad::SessionMismatch);
  EXPECT_THROW(other->adapt(data, kSteps + 4, kLr, kSeed, sess), ad::SessionMismatch);
  EXPECT_THROW(other->adapt(data, kSteps, 2e-3f, kSeed, sess), ad::SessionMismatch);
}

TEST_F(SessionTest, PeriodicCheckpointFailuresNeverAffectTraining) {
  const auto data = vp_data();
  auto ref_model = make_vp();
  ref_model->adapt(data, kSteps, kLr, kSeed);
  const auto reference = snap(*ref_model);

  ad::SessionOptions sess;
  sess.dir = session_dir("vp_ckpt_fail").string();
  sess.checkpoint_every = 3;

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::Throw;
  plan.times = -1;  // every checkpoint write fails
  fault::arm("session.checkpoint", plan);
  auto model = make_vp();
  const auto st = model->adapt(data, kSteps, kLr, kSeed, sess);
  fault::disarm_all();

  // Training ran to completion with identical weights; only durability lost.
  EXPECT_EQ(st.checkpoints, 0);
  EXPECT_FALSE(st.interrupted);
  expect_bitwise_equal(snap(*model), reference);
  EXPECT_FALSE(ad::TrainSession::latest_step(sess.dir).has_value());
}

TEST_F(SessionTest, ResumeApiRequiresExistingCheckpoint) {
  const auto data = vp_data();
  ad::api::AdaptOptions opts;
  opts.steps = kSteps;
  opts.seed = kSeed;
  Rng rng(11);
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  EXPECT_THROW(ad::api::Resume(tiny_llm(), data, cfg, opts, rng), std::invalid_argument);
  opts.session_dir = session_dir("vp_api_missing").string();
  EXPECT_THROW(ad::api::Resume(tiny_llm(), data, cfg, opts, rng), std::invalid_argument);
}
