#include "support/bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

#include "tensor/isa.hpp"

namespace netllm::benchsupport {

namespace {

namespace fs = std::filesystem;

bool try_load(nn::Module& module, const std::string& path) {
  if (!fs::exists(path)) return false;
  try {
    module.load(path);
    return true;
  } catch (const std::exception&) {
    return false;  // stale snapshot: retrain
  }
}

void try_save(const nn::Module& module, const std::string& path) {
  std::error_code ec;
  fs::create_directories(kCacheDir, ec);
  try {
    module.save(path);
  } catch (const std::exception&) {
    // Non-fatal: benches still work without a cache.
  }
}

std::string cache_path(const std::string& name) {
  return std::string(kCacheDir) + "/" + name + ".bin";
}

/// First line of a shell command's output, or "unknown".
std::string command_line(const char* cmd) {
  std::string out;
  if (FILE* pipe = ::popen(cmd, "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> provenance(const std::string& build_type) {
  namespace isa = tensor::isa;
  const char* threads = std::getenv("NETLLM_THREADS");
  return {
      {"git_sha", command_line("git rev-parse HEAD 2>/dev/null")},
      {"git_dirty", command_line("git status --porcelain 2>/dev/null | head -c1 | wc -c")},
      {"build_type", build_type},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"isa_active", isa::isa_name(isa::active_isa())},
      {"netllm_threads", threads != nullptr ? threads : "unset"},
  };
}

std::shared_ptr<baselines::TrackModel> trained_track() {
  core::Rng rng(11);
  baselines::TrackConfig track_cfg;
  track_cfg.hidden_dim = 48;
  auto model = std::make_shared<baselines::TrackModel>(track_cfg, rng);
  const auto path = cache_path("baseline_track_v3");
  if (try_load(*model, path)) return model;
  std::cerr << "[bench] training TRACK baseline...\n";
  const auto data = vp::build_dataset(vp::vp_default_train(), 1200);
  model->train(data, 4000, 2e-3f, 21);
  try_save(*model, path);
  return model;
}

std::shared_ptr<baselines::GenetPolicy> trained_genet() {
  core::Rng rng(12);
  auto model = std::make_shared<baselines::GenetPolicy>(rng);
  const auto path = cache_path("baseline_genet_v3");
  if (try_load(*model, path)) return model;
  std::cerr << "[bench] training GENET baseline...\n";
  const auto setting = abr::abr_default_train();
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  baselines::GenetTrainConfig cfg;
  cfg.episodes = 8000;
  cfg.entropy_bonus = 0.10f;
  cfg.seed = 22;
  model->train(video, traces, cfg);
  try_save(*model, path);
  return model;
}

std::shared_ptr<baselines::DecimaPolicy> trained_decima() {
  core::Rng rng(13);
  auto model = std::make_shared<baselines::DecimaPolicy>(rng);
  const auto path = cache_path("baseline_decima_v3");
  if (try_load(*model, path)) return model;
  std::cerr << "[bench] training Decima baseline...\n";
  baselines::DecimaTrainConfig cfg;
  cfg.episodes = 400;
  cfg.train_scale = 0.12;
  cfg.seed = 23;
  model->train(cfg);
  try_save(*model, path);
  return model;
}

std::vector<adapt::AbrTrajectory> abr_experience_pool() {
  const auto setting = abr::abr_default_train();
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  auto genet = trained_genet();
  // Clean (noise-free) epochs give the DT a sharply imitable top-return
  // behaviour; epsilon epochs add the contrastive "bad action" coverage the
  // paper's return-conditioned training exploits.
  auto pool = adapt::collect_abr_experience(*genet, video, traces, 1, 0.0, 30);
  for (auto& traj : adapt::collect_abr_experience(*genet, video, traces, 1, 0.15, 31)) {
    pool.push_back(std::move(traj));
  }
  baselines::Mpc mpc;
  for (auto& traj : adapt::collect_abr_experience(mpc, video, traces, 1, 0.0, 32)) {
    pool.push_back(std::move(traj));
  }
  for (auto& traj : adapt::collect_abr_experience(mpc, video, traces, 1, 0.1, 34)) {
    pool.push_back(std::move(traj));
  }
  baselines::Bba bba;
  for (auto& traj : adapt::collect_abr_experience(bba, video, traces, 1, 0.10, 33)) {
    pool.push_back(std::move(traj));
  }
  return pool;
}

std::vector<adapt::CjsTrajectory> cjs_experience_pool() {
  const auto base = cjs::cjs_default_train();
  auto decima = trained_decima();
  // Clean greedy episodes (sharply imitable top behaviour) + stochastic
  // episodes (exploration contrast for return conditioning).
  auto pool = adapt::collect_cjs_experience(*decima, base, /*episodes=*/12, 40);
  decima->set_stochastic(true, 41);
  for (auto& traj : adapt::collect_cjs_experience(*decima, base, 16, 42)) {
    pool.push_back(std::move(traj));
  }
  decima->set_stochastic(false);
  baselines::FifoScheduler fifo;
  for (auto& traj : adapt::collect_cjs_experience(fifo, base, 8, 43)) {
    pool.push_back(std::move(traj));
  }
  baselines::FairScheduler fair;
  for (auto& traj : adapt::collect_cjs_experience(fair, base, 8, 44)) {
    pool.push_back(std::move(traj));
  }
  return pool;
}

std::string NetllmVariant::tag(const std::string& task) const {
  std::string t = "netllm_" + task + "_" + llm;
  if (!pretrained) t += "_scratch";
  if (!use_lora) t += "_nolora";
  if (train_backbone) t += "_fullft";
  if (adapt_steps >= 0) t += "_s" + std::to_string(adapt_steps);
  return t + "_v4";
}

std::shared_ptr<adapt::VpAdapter> adapted_vp(const NetllmVariant& variant) {
  auto llm = llm::build_pretrained(variant.llm, 7, kCacheDir, variant.pretrained);
  core::Rng rng(51);
  adapt::VpAdapterConfig cfg;
  cfg.lora_rank = 4;  // paper r=32 at d=4096; same order of ratio at d=64
  cfg.lora_alpha = 8.0f;
  cfg.use_lora = variant.use_lora;
  cfg.train_backbone = variant.train_backbone;
  auto adapter = std::make_shared<adapt::VpAdapter>(llm, cfg, rng);
  const auto path = cache_path(variant.tag("vp"));
  if (try_load(*adapter, path)) return adapter;
  std::cerr << "[bench] adapting NetLLM for VP (" << variant.tag("vp") << ")...\n";
  const auto data = vp::build_dataset(vp::vp_default_train(), 1200);
  const int steps = variant.adapt_steps >= 0 ? variant.adapt_steps : 700;
  adapter->adapt(data, steps, 1e-3f, 52);
  try_save(*adapter, path);
  return adapter;
}

std::shared_ptr<adapt::AbrAdapter> adapted_abr(const NetllmVariant& variant) {
  auto llm = llm::build_pretrained(variant.llm, 7, kCacheDir, variant.pretrained);
  core::Rng rng(61);
  adapt::AbrAdapterConfig cfg;
  cfg.lora_rank = 8;  // paper r=128 at d=4096; same order of ratio at d=64
  cfg.lora_alpha = 16.0f;
  cfg.target_return_boost = 1.1f;  // condition slightly above the best pool return
  cfg.use_lora = variant.use_lora;
  cfg.train_backbone = variant.train_backbone;
  auto adapter = std::make_shared<adapt::AbrAdapter>(llm, cfg, rng);
  const auto path = cache_path(variant.tag("abr"));
  if (try_load(*adapter, path)) {
    // The return-conditioning target is fitted from the pool during adapt()
    // and is not part of the snapshot; recompute it so cached and fresh
    // adapters behave identically.
    float best = -1e30f;
    for (const auto& traj : abr_experience_pool()) {
      float g = 0.0f;
      for (const auto& step : traj) g += step.reward;
      best = std::max(best, g);
    }
    adapter->set_target_return(best * cfg.target_return_boost);
    return adapter;
  }
  std::cerr << "[bench] adapting NetLLM for ABR (" << variant.tag("abr") << ")...\n";
  const auto pool = abr_experience_pool();
  const int steps = variant.adapt_steps >= 0 ? variant.adapt_steps : 3400;
  adapter->adapt(pool, steps, 1e-3f, 62);
  try_save(*adapter, path);
  return adapter;
}

std::shared_ptr<adapt::CjsAdapter> adapted_cjs(const NetllmVariant& variant) {
  auto llm = llm::build_pretrained(variant.llm, 7, kCacheDir, variant.pretrained);
  core::Rng rng(71);
  adapt::CjsAdapterConfig cfg;
  cfg.lora_rank = 8;
  cfg.lora_alpha = 16.0f;
  cfg.use_lora = variant.use_lora;
  cfg.train_backbone = variant.train_backbone;
  auto adapter = std::make_shared<adapt::CjsAdapter>(llm, cfg, rng);
  const auto path = cache_path(variant.tag("cjs"));
  if (try_load(*adapter, path)) {
    float best = -1e30f;
    double mean_abs = 0.0;
    int n = 0;
    for (const auto& traj : cjs_experience_pool()) {
      float g = 0.0f;
      for (const auto& d : traj) g += static_cast<float>(d.reward);
      if (traj.empty()) continue;
      best = std::max(best, g);
      mean_abs += std::abs(g);
      ++n;
    }
    if (n > 0) {
      adapter->set_return_scale(std::max(1.0f, static_cast<float>(mean_abs / n)));
      adapter->set_target_return(best * cfg.target_return_boost);
    }
    return adapter;
  }
  std::cerr << "[bench] adapting NetLLM for CJS (" << variant.tag("cjs") << ")...\n";
  const auto pool = cjs_experience_pool();
  const int steps = variant.adapt_steps >= 0 ? variant.adapt_steps : 500;
  adapter->adapt(pool, steps, 1e-3f, 72);
  try_save(*adapter, path);
  return adapter;
}

std::vector<double> eval_vp(vp::VpPredictor& model, const vp::VpSetting& setting,
                            int max_samples) {
  const auto samples = vp::build_dataset(setting, max_samples);
  return vp::evaluate_mae(model, samples);
}

std::vector<double> eval_abr(abr::AbrPolicy& policy, const abr::AbrSetting& setting,
                             const abr::SimConfig& sim) {
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  return abr::evaluate_qoe(policy, video, traces, sim);
}

std::vector<double> eval_cjs(cjs::SchedPolicy& policy, cjs::WorkloadConfig setting,
                             int repetitions) {
  std::vector<double> jcts;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto cfg = setting;
    cfg.seed = setting.seed + static_cast<std::uint64_t>(rep) * 977;
    const auto result = cjs::run_workload(cfg, policy);
    jcts.insert(jcts.end(), result.jct_s.begin(), result.jct_s.end());
  }
  return jcts;
}

void print_metric_summary(const std::string& title,
                          const std::vector<std::pair<std::string, std::vector<double>>>& rows,
                          const std::string& metric_name, bool higher_is_better) {
  core::print_banner(std::cout, title);
  core::Table table({"method", "mean " + metric_name, "p10", "median", "p90",
                     higher_is_better ? "gain vs best baseline %" : "reduction vs best baseline %"});
  // The first row is assumed to be NetLLM; baselines follow.
  double best_baseline = higher_is_better ? -1e18 : 1e18;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double m = core::mean(rows[i].second);
    best_baseline = higher_is_better ? std::max(best_baseline, m) : std::min(best_baseline, m);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, values] = rows[i];
    const double m = core::mean(values);
    std::string delta = "-";
    if (i == 0 && rows.size() > 1) {
      delta = core::Table::num(higher_is_better ? core::improvement_pct(m, best_baseline)
                                                : core::reduction_pct(m, best_baseline),
                               1);
    }
    table.add_row({name, core::Table::num(m), core::Table::num(core::percentile(values, 10)),
                   core::Table::num(core::percentile(values, 50)),
                   core::Table::num(core::percentile(values, 90)), delta});
  }
  table.print(std::cout);
}

}  // namespace netllm::benchsupport
