#include "netllm/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "core/fault.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace netllm::adapt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".nllm";

// Section names inside the session record.
constexpr const char* kSecFingerprint = "fingerprint";
constexpr const char* kSecOptimizer = "optimizer";
constexpr const char* kSecGuard = "guard";
constexpr const char* kSecRng = "rng";
constexpr const char* kSecLoop = "loop";

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T take_pod(std::string_view blob, std::size_t& pos, const char* what) {
  if (sizeof(T) > blob.size() - pos) {
    throw std::runtime_error(std::string("TrainSession: truncated '") + what + "' section");
  }
  T v{};
  std::memcpy(&v, blob.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

std::string encode_rng(const core::RngState& st) {
  std::string out;
  for (auto s : st.s) append_pod(out, s);
  append_pod(out, static_cast<std::uint8_t>(st.has_cached_gaussian ? 1 : 0));
  append_pod(out, st.cached_gaussian);
  return out;
}

core::RngState decode_rng(std::string_view blob) {
  std::size_t pos = 0;
  core::RngState st;
  for (auto& s : st.s) s = take_pod<std::uint64_t>(blob, pos, kSecRng);
  st.has_cached_gaussian = take_pod<std::uint8_t>(blob, pos, kSecRng) != 0;
  st.cached_gaussian = take_pod<double>(blob, pos, kSecRng);
  return st;
}

struct LoopState {
  std::int32_t next_step = 0;
  float initial_loss = 0.0f;
  float final_loss = 0.0f;
  double seconds = 0.0;
};

std::string encode_loop(const LoopState& ls) {
  std::string out;
  append_pod(out, ls.next_step);
  append_pod(out, ls.initial_loss);
  append_pod(out, ls.final_loss);
  append_pod(out, ls.seconds);
  return out;
}

LoopState decode_loop(std::string_view blob) {
  std::size_t pos = 0;
  LoopState ls;
  ls.next_step = take_pod<std::int32_t>(blob, pos, kSecLoop);
  ls.initial_loss = take_pod<float>(blob, pos, kSecLoop);
  ls.final_loss = take_pod<float>(blob, pos, kSecLoop);
  ls.seconds = take_pod<double>(blob, pos, kSecLoop);
  return ls;
}

const std::string* find_section(const tensor::SessionSections& sections, const char* name) {
  for (const auto& [n, blob] : sections) {
    if (n == name) return &blob;
  }
  return nullptr;
}

const std::string& require_section(const tensor::SessionSections& sections, const char* name) {
  const auto* blob = find_section(sections, name);
  if (!blob) {
    throw std::runtime_error(std::string("TrainSession: checkpoint lacks the '") + name +
                             "' section");
  }
  return *blob;
}

/// Checkpoint files in `dir`, sorted newest-first by step.
std::vector<std::pair<int, fs::path>> list_checkpoints(const std::string& dir) {
  std::vector<std::pair<int, fs::path>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) continue;
    if (name.rfind(kPrefix, 0) != 0 || !name.ends_with(kSuffix)) continue;
    const auto digits =
        name.substr(std::strlen(kPrefix), name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) continue;
    out.emplace_back(std::stoi(digits), entry.path());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

std::string SessionFingerprint::canonical() const {
  // lr is rendered as a hex float so the fingerprint is exact, not a
  // rounded decimal that could collide across nearby learning rates.
  char lr_buf[48];
  std::snprintf(lr_buf, sizeof(lr_buf), "%a", static_cast<double>(lr));
  return "task=" + task + ";model=" + model + ";seed=" + std::to_string(seed) +
         ";lr=" + std::string(lr_buf) + ";steps=" + std::to_string(steps);
}

tensor::NamedParams session_params(const nn::Module& adapter, const nn::Module* backbone) {
  auto out = adapter.named_parameters();
  if (backbone) {
    for (auto& [name, t] : backbone->named_parameters("llm.")) out.emplace_back(name, t);
  }
  return out;
}

TrainSession::TrainSession(const SessionOptions& opts, SessionFingerprint fp,
                           tensor::NamedParams params, tensor::Optimizer& opt, TrainGuard& guard)
    : opts_(opts), fp_(std::move(fp)), params_(std::move(params)), opt_(opt), guard_(guard) {
  opts_.keep_last = std::max(opts_.keep_last, 1);
  // Optimizer parameter names for diagnostics: the trainable subset of the
  // checkpoint set, in registration order — exactly how adapt_parameters()
  // builds the optimizer's list.
  for (const auto& [name, t] : params_) {
    if (t.requires_grad()) opt_param_names_.push_back(name);
  }
  if (opt_param_names_.size() != opt_.params().size()) opt_param_names_.clear();
  if (enabled() && opts_.handle_signals) signals_.emplace();
}

std::string TrainSession::checkpoint_path(int step) const {
  std::string digits = std::to_string(step);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return opts_.dir + "/" + kPrefix + digits + kSuffix;
}

std::optional<int> TrainSession::latest_step(const std::string& dir) {
  if (dir.empty()) return std::nullopt;
  auto entries = list_checkpoints(dir);
  if (entries.empty()) return std::nullopt;
  return entries.front().first;
}

int TrainSession::resume(core::Rng& rng, AdaptStats& stats) {
  if (!enabled()) return 0;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) throw std::runtime_error("TrainSession: cannot create session dir " + opts_.dir);

  for (const auto& [step, path] : list_checkpoints(opts_.dir)) {
    try {
      // Pass 1: verify the container and read the sections WITHOUT loading
      // any tensor, so a fingerprint mismatch cannot clobber the live
      // weights before it is detected.
      tensor::SessionSections sections;
      (void)tensor::load_params_report(path.string(), {}, nullptr, &sections);
      const auto& fp_blob = require_section(sections, kSecFingerprint);
      if (fp_blob != fp_.canonical()) {
        throw SessionMismatch("TrainSession: fingerprint mismatch in " + path.string() +
                              ": checkpoint is '" + fp_blob + "', this run is '" +
                              fp_.canonical() + "'");
      }
      const auto loop = decode_loop(require_section(sections, kSecLoop));
      const auto rng_state = decode_rng(require_section(sections, kSecRng));

      // Pass 2: strict tensor load into the live parameters.
      const auto report = tensor::load_params_report(path.string(), params_);
      if (!report.ok()) {
        throw std::runtime_error("TrainSession: incompatible checkpoint " + path.string() +
                                 " (" + report.summary() + ")");
      }
      opt_.load_state(require_section(sections, kSecOptimizer), opt_param_names_);
      guard_.load_state(require_section(sections, kSecGuard));
      rng.set_state(rng_state);
      stats.initial_loss = loop.initial_loss;
      stats.final_loss = loop.final_loss;
      stats.seconds = loop.seconds;
      stats.start_step = loop.next_step;
      last_saved_step_ = loop.next_step;
      core::counter_add("session.resumes");
      return loop.next_step;
    } catch (const SessionMismatch&) {
      throw;  // wrong run for this directory — never fall back past it
    } catch (const std::exception&) {
      // Torn or incompatible file (crash mid-write that outran the atomic
      // rename, or stray data): fall back to the previous checkpoint.
      core::counter_add("session.torn_checkpoints");
      continue;
    }
  }
  return 0;
}

void TrainSession::checkpoint(int next_step, core::Rng& rng, const AdaptStats& stats,
                              bool must_succeed) {
  // End-to-end checkpoint latency (encode + CRC + fsync + rename + GC,
  // including any retry backoff) lands in the trace.checkpoint histogram —
  // the number to watch when tuning `checkpoint_every`.
  core::trace::Span span(core::trace::Phase::kCheckpoint);
  tensor::SessionSections sections;
  sections.emplace_back(kSecFingerprint, fp_.canonical());
  {
    std::string blob;
    opt_.save_state(blob);
    sections.emplace_back(kSecOptimizer, std::move(blob));
  }
  {
    std::string blob;
    guard_.save_state(blob);
    sections.emplace_back(kSecGuard, std::move(blob));
  }
  sections.emplace_back(kSecRng, encode_rng(rng.state()));
  sections.emplace_back(kSecLoop, encode_loop(LoopState{next_step, stats.initial_loss,
                                                        stats.final_loss, stats.seconds}));

  // A periodic checkpoint failing transiently must not kill the training
  // run — it is retried at the next interval. The drain checkpoint (stop
  // requested) is the run's only durable exit, so it retries with backoff
  // and propagates a final failure to the caller.
  const int attempts = must_succeed ? 4 : 1;
  int backoff_ms = 5;
  for (int attempt = 1;; ++attempt) {
    try {
      core::fault::check("session.checkpoint");
      tensor::save_params(checkpoint_path(next_step), params_, {}, sections);
      break;
    } catch (const std::exception&) {
      if (attempt >= attempts) {
        core::counter_add("session.checkpoint_failures");
        if (must_succeed) throw;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 100);
    }
  }
  last_saved_step_ = next_step;
  ++checkpoints_;
  core::counter_add("session.checkpoints");
  gc();
}

void TrainSession::gc() const {
  // Keep the newest `keep_last` checkpoints. The newest is the file just
  // written (valid by construction here), so it is never collected; older
  // files beyond the retention window — including any stale torn ones —
  // are unlinked best-effort.
  auto entries = list_checkpoints(opts_.dir);
  for (std::size_t i = static_cast<std::size_t>(opts_.keep_last); i < entries.size(); ++i) {
    std::error_code ec;
    fs::remove(entries[i].second, ec);
  }
}

bool TrainSession::after_step(int step, core::Rng& rng, AdaptStats& stats) {
  if (!enabled()) return false;
  const int next = step + 1;
  if (core::stop_requested()) {
    // Graceful drain: the in-flight step has fully applied; persist and
    // tell the loop to exit cleanly.
    checkpoint(next, rng, stats, /*must_succeed=*/true);
    stats.interrupted = true;
    core::counter_add("session.drains");
    return true;
  }
  if (opts_.checkpoint_every > 0 && next - last_saved_step_ >= opts_.checkpoint_every) {
    checkpoint(next, rng, stats, /*must_succeed=*/false);
  }
  return false;
}

void TrainSession::finish(int total_steps, core::Rng& rng, const AdaptStats& stats) {
  if (!enabled() || last_saved_step_ >= total_steps) return;
  // Best-effort final checkpoint: the run already completed; a failure here
  // only costs the "resume as already-done" convenience.
  checkpoint(total_steps, rng, stats, /*must_succeed=*/false);
}

}  // namespace netllm::adapt
