// Shared infrastructure for the figure benches: trained baselines and
// NetLLM adapters with on-disk snapshot caching (so every bench binary is
// standalone but the fleet shares training work), plus uniform per-setting
// evaluation helpers.
//
// Hyperparameters here are the repo-wide "experiment card": training
// budgets for TRACK / GENET / Decima and the NetLLM adaptation recipes.
// LoRA ranks are scaled to the lite backbone (paper uses r = 32/128/128 on
// d_model = 4096; we keep the same VP:ABR:CJS ratio on d_model = 64).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/abr/genet.hpp"
#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/decima.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "baselines/vp/track.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "llm/zoo.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/vp_adapter.hpp"

namespace netllm::benchsupport {

inline constexpr const char* kCacheDir = ".netllm_cache";

/// Provenance of a ledger run as (key, value) pairs: git_sha, git_dirty,
/// build_type, nproc, isa_active and netllm_threads. Run from the repository
/// root so the git keys resolve; tools/check_bench_*.py require every key.
std::vector<std::pair<std::string, std::string>> provenance(const std::string& build_type);

// ---- trained baselines (snapshot-cached) ----

std::shared_ptr<baselines::TrackModel> trained_track();
std::shared_ptr<baselines::GenetPolicy> trained_genet();
std::shared_ptr<baselines::DecimaPolicy> trained_decima();

// ---- experience pools (DD-LRNA RL_Collect; deterministic, in-process) ----

/// ABR pool: trained GENET (the paper's collector) plus MPC and BBA
/// trajectories for behavioural diversity — the paper notes the dataset may
/// come from *any* existing algorithms and that the LLM learns from both
/// good and bad actions.
std::vector<adapt::AbrTrajectory> abr_experience_pool();
std::vector<adapt::CjsTrajectory> cjs_experience_pool();

// ---- NetLLM adapters (snapshot-cached per variant) ----

struct NetllmVariant {
  std::string llm = "llama2-lite";
  bool pretrained = true;      // false = Fig. 13 "w/o pre-trained knowledge"
  bool use_lora = true;        // false = Fig. 13 "w/o domain knowledge"
  bool train_backbone = false; // true only with pretrained=false (from-scratch arm)
  int adapt_steps = -1;        // -1 = task default
  std::string tag(const std::string& task) const;
};

std::shared_ptr<adapt::VpAdapter> adapted_vp(const NetllmVariant& variant = {});
std::shared_ptr<adapt::AbrAdapter> adapted_abr(const NetllmVariant& variant = {});
std::shared_ptr<adapt::CjsAdapter> adapted_cjs(const NetllmVariant& variant = {});

// ---- evaluation (per-sample metric vectors) ----

std::vector<double> eval_vp(vp::VpPredictor& model, const vp::VpSetting& setting,
                            int max_samples = 240);
std::vector<double> eval_abr(abr::AbrPolicy& policy, const abr::AbrSetting& setting,
                             const abr::SimConfig& sim = {});
/// Per-job JCTs over `repetitions` workload instances (different seeds).
std::vector<double> eval_cjs(cjs::SchedPolicy& policy, cjs::WorkloadConfig setting,
                             int repetitions = 2);

// ---- reporting helpers ----

void print_metric_summary(const std::string& title,
                          const std::vector<std::pair<std::string, std::vector<double>>>& rows,
                          const std::string& metric_name, bool higher_is_better);

}  // namespace netllm::benchsupport
