// Durable training sessions: crash-safe checkpoint/resume for the three
// `adapt()` loops (VP / ABR / CJS).
//
// DD-LRNA's offline adaptation runs for thousands of steps over a
// pre-collected experience pool — in production that job must survive
// preemption, OOM kills and node restarts. A `TrainSession` makes the loop
// durable: it periodically writes a *session record* — a snapshot with
// sections (see tensor/serialize.hpp) — capturing everything the loop needs
// to continue **bitwise-identically** —
//
//   - the trainable parameters (adapter + backbone when it trains too),
//   - the full optimizer state (Adam m/v moments + step count),
//   - the `core::Rng` stream (xoshiro words + cached Box-Muller variate),
//   - the TrainGuard last-good snapshot and skip/restore counters,
//   - the loop cursor (next step) and running stats,
//   - a config fingerprint (task/model/seed/lr/steps) so a resume against
//     a different run is rejected with a named `SessionMismatch` error.
//
// The invariant tests pin: `adapt(2N)` ≡ `adapt(N) → kill → resume →
// adapt(N)`, with final weights bitwise equal, at any thread count.
//
// Checkpoints use the atomic tmp+fsync+rename path, so a crash mid-write
// leaves the previous checkpoint intact. Retention keeps the newest
// `keep_last` files and never GCs the newest valid one; a torn newest (e.g.
// a crash that outran fsync) is skipped at resume in favour of the previous
// checkpoint. A SIGINT/SIGTERM delivered mid-adapt sets the signal-safe
// stop flag (core/signal.hpp); the loop finishes the in-flight step, writes
// a drain checkpoint (retried, must succeed) and returns cleanly with
// `AdaptStats::interrupted` set.
//
// Fault-injection site: "session.checkpoint" (fires before each checkpoint
// write attempt).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/signal.hpp"
#include "netllm/resilience.hpp"
#include "nn/module.hpp"
#include "tensor/optim.hpp"
#include "tensor/serialize.hpp"

namespace netllm::adapt {

/// Outcome of one `adapt()` run — shared by the three task adapters.
struct AdaptStats {
  float initial_loss = 0.0f;
  float final_loss = 0.0f;
  double seconds = 0.0;   // cumulative across resumed runs
  int skipped_steps = 0;  // steps vetoed for non-finite loss/gradients
  int restores = 0;       // last-good snapshot restores (corrupt params)
  int start_step = 0;     // 0 fresh; the resumed step otherwise
  bool interrupted = false;  // drained early on SIGINT/SIGTERM
  int checkpoints = 0;    // durable checkpoints written by this run
};

/// Durable-session knobs for `adapt()`. An empty `dir` disables the session
/// layer entirely (no signal handling, no checkpoint I/O on the step path).
struct SessionOptions {
  std::string dir;            // checkpoint directory; empty = off
  int checkpoint_every = 64;  // steps between periodic checkpoints
  int keep_last = 3;          // retention: newest K checkpoints kept (>= 1)
  bool handle_signals = true;  // install SIGINT/SIGTERM drain handlers
};

/// Thrown when a session directory's checkpoint was written by an
/// incompatible run (different task/model/seed/lr/steps). Named so callers
/// can distinguish "wrong session dir" from file corruption.
class SessionMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Identity of an adaptation run. Two runs may share a session directory
/// only when every field matches — resuming with, say, a different seed
/// would silently produce weights no uninterrupted run could produce.
struct SessionFingerprint {
  std::string task;   // "vp" | "abr" | "cjs"
  std::string model;  // backbone id (MiniGptConfig::name)
  std::uint64_t seed = 0;
  float lr = 0.0f;
  int steps = 0;

  std::string canonical() const;
};

/// Checkpoint parameter set for an adapter: its named parameters, plus the
/// backbone's (under "llm.") when the backbone trains too — without them a
/// full-FT resume would lose the backbone updates.
tensor::NamedParams session_params(const nn::Module& adapter, const nn::Module* backbone);

class TrainSession {
 public:
  /// Binds a session to one adapt() run's state. `params` is the checkpoint
  /// tensor set; `opt` and `guard` are serialized through their
  /// save_state/load_state pairs. Installs signal handlers when enabled.
  TrainSession(const SessionOptions& opts, SessionFingerprint fp, tensor::NamedParams params,
               tensor::Optimizer& opt, TrainGuard& guard);

  bool enabled() const { return !opts_.dir.empty(); }

  /// Scan the session dir for the newest loadable, fingerprint-matching
  /// checkpoint; restore params/optimizer/guard/rng/stats from it and
  /// return the step to continue from (0 when starting fresh). A torn
  /// newest file falls back to the previous checkpoint; a fingerprint
  /// mismatch throws SessionMismatch.
  int resume(core::Rng& rng, AdaptStats& stats);

  /// Call after every completed step (the in-flight step has fully
  /// applied). Writes a periodic checkpoint on schedule; on a pending stop
  /// request writes a drain checkpoint (retried; must succeed), sets
  /// `stats.interrupted` and returns true — the loop must exit.
  bool after_step(int step, core::Rng& rng, AdaptStats& stats);

  /// Call once the loop ran to completion: writes the final checkpoint so
  /// the directory resumes as "already done".
  void finish(int total_steps, core::Rng& rng, const AdaptStats& stats);

  int checkpoints_written() const { return checkpoints_; }

  /// Step recorded in the newest well-formed checkpoint filename, if any.
  /// Existence probe only — contents are validated by `resume()`.
  static std::optional<int> latest_step(const std::string& dir);

 private:
  void checkpoint(int next_step, core::Rng& rng, const AdaptStats& stats, bool must_succeed);
  void gc() const;
  std::string checkpoint_path(int step) const;

  SessionOptions opts_;
  SessionFingerprint fp_;
  tensor::NamedParams params_;
  tensor::Optimizer& opt_;
  TrainGuard& guard_;
  std::vector<std::string> opt_param_names_;  // aligned with opt_.params()
  std::optional<core::SignalGuard> signals_;
  int last_saved_step_ = 0;
  int checkpoints_ = 0;
};

}  // namespace netllm::adapt
