// End-to-end serving benchmark: declarations shared by the traffic loops
// (workloads.cpp), the traced run (tracing.cpp) and the command line
// (main.cpp). bench/e2e/README.md describes the workloads and the metrics.
//
// The benchmark drives only the public serving API — adapters loaded from
// snapshots, `serve::InferenceEngine` built through `adapt::api::Serve` — and
// times everything from outside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"

namespace netllm::e2e {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
/// Linear-interpolated percentile (rank p/100 * (n-1)); 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
double mean(const std::vector<double>& xs);
/// a / b, or 0 when b is not positive.
double ratio(double a, double b);

enum class Task : int { kVp = 0, kAbr = 1, kCjs = 2 };
const char* task_name(Task t);

enum class Loop { kOpen, kClosed };

/// One workload: traffic shape, latency limit and the models serving it.
struct WorkloadSpec {
  const char* name;
  Loop loop;
  double rate_rps;             // open loop: Poisson arrivals per second
  int clients;                 // closed loop: requests outstanding at once
  double slo_ms;               // latency limit behind goodput_rps / slo_attainment
  double vp_share, abr_share;  // task mix of the arrivals; CJS takes the rest
  bool wide_q8;                // 512-wide Q8_0 backbone instead of 64-wide fp32
};
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

constexpr double kWarmupS = 2.0;
constexpr int kVpHorizon = 20;      // the paper's pw = 4 s at 5 Hz
constexpr int kVpCheckEvery = 64;   // every 64th primary VP answer is re-derived
constexpr int kDigestPerClient = 48;
// The host's vCPU speed moves by up to 70% from one second to the next
// (bench/e2e/README.md). A fixed calibration computation is timed on the
// serving thread after a run(), at most this often, and every time is scaled
// by the sample nearest it to the speed at which the calibration takes
// kReferenceCalibrationMs (reference_scale).
constexpr double kHostSampleEveryS = 0.1;
constexpr double kReferenceCalibrationMs = 0.08;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required: BENCHMARK.json's run_seconds
  bool trace = false;
  std::string result_path;  // full result JSON; empty = not written
};

// ---- seeded inputs ----

struct VpWindow {
  std::vector<vp::Viewport> history;
  tensor::Tensor saliency;
};

/// A recorded stream of decisions replayed as requests: BBA streaming
/// sessions for ABR, a FIFO-scheduled episode for CJS.
struct AbrReplay {
  std::vector<abr::Observation> obs;
  std::vector<abr::ChunkResult> results;
  std::vector<double> qoe;
};

struct Inputs {
  std::vector<VpWindow> vp_windows;  // prompt skeletons (Zipf-drawn) or jitter bases
  std::vector<double> zipf_cdf;      // cumulative Zipf(1.1) over vp_windows
  AbrReplay abr;
  std::vector<cjs::Decision> cjs;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

// ---- models ----

/// Snapshot files written with save_params before the timed set-ups read them.
struct Snapshots {
  std::string backbone, vp, abr, cjs;  // empty when the workload needs none
};

class Tracer;

/// One cold set-up: adapters loaded from the snapshots plus the engine that
/// serves them.
struct Stack {
  std::shared_ptr<adapt::VpAdapter> vp;
  std::shared_ptr<adapt::AbrAdapter> abr;
  std::shared_ptr<adapt::CjsAdapter> cjs;
  std::shared_ptr<nn::KvArena> arena;  // the VP adapter's arena (null without VP)
  std::shared_ptr<serve::InferenceEngine> engine;
};

Snapshots write_snapshots(const WorkloadSpec& spec, const std::string& dir);
/// Loads everything from the snapshots. With a tracer the adapters are served
/// through timing decorators, which hide them from the engine, so the
/// benchmark attaches the KV arena and quantizes itself (engine_arena).
Stack cold_setup(const WorkloadSpec& spec, const Snapshots& snaps, Tracer* tracer);
/// An arena configured as the workload's engine configures the one it
/// attaches to a bare VpAdapter of backbone shape `llm`.
std::shared_ptr<nn::KvArena> engine_arena(const WorkloadSpec& spec,
                                          const llm::MiniGptConfig& llm);
/// Throws unless an untraced set-up's engine attached an arena and quantized
/// the backbones as engine_arena and the traced set-up do, so traced runs
/// measure the configuration the untraced ones serve.
void check_engine_setup(const WorkloadSpec& spec, const Stack& untraced);
/// A second VP adapter from the same snapshots, the reference of the
/// correctness gate.
std::shared_ptr<adapt::VpAdapter> load_vp_reference(const WorkloadSpec& spec,
                                                    const Snapshots& snaps);

// ---- one run ----

struct Outcome {
  Task task = Task::kVp;
  int client = 0;          // closed-loop client; 0 in open loop
  std::uint64_t request = 0;
  double sent_s = 0.0;     // due time (open loop) or submit time, s after start
  double done_s = -1.0;    // return of the run() that served it; < 0 = rejected
  bool measured = false;   // inside the measurement window
  serve::Source source = serve::Source::kFallback;
  double admission_wait_ms = 0.0;
  double policy_wait_ms = 0.0;

  bool primary() const {
    return done_s >= 0 && (source == serve::Source::kLlm || source == serve::Source::kRetried);
  }
  double latency_ms() const { return (done_s - sent_s) * 1e3; }
};

/// A sampled VP answer, re-derived with predict_uncached after the run.
struct VpCheck {
  std::vector<vp::Viewport> history;
  tensor::Tensor saliency;
  std::vector<vp::Viewport> answer;
};

struct Ledger {
  std::vector<Outcome> outcomes;
  std::vector<double> drain_sizes;  // requests per run() that returned in the window
  std::vector<double> lateness_ms;  // open loop: how late the generator submitted
  std::vector<VpCheck> vp_checks;
  std::vector<std::string> errors;  // failed output checks; must stay empty
  std::uint64_t digest = 0;         // closed loop: FNV-1a over per-client decisions
  int digest_decisions = 0;

  double window_start_s = 0.0, window_end_s = 0.0;
  double kernel_calls = 0, kernel_flops = 0, kernel_bytes = 0;  // counters over the window
  double peak_rss_mb = 0.0;
  std::vector<std::pair<std::string, double>> phase_p50_ms;  // registry trace.<phase>
  // (run() return s after start, process CPU ms the run() took), every run()
  std::vector<std::pair<double, double>> run_cpu_ms;
  // (run() return s after start, calibration_ms) taken on the serving thread,
  // in time order
  std::vector<std::pair<double, double>> host_samples;

  /// The median of the calibration sample taken at or last before `t_s` (the
  /// first one before any) and the samples either side of it; 0 without
  /// samples.
  double host_ms_at(double t_s) const;
  /// reference_scale of the sample at `t_s`.
  double to_ref_at(double t_s) const;
};

Ledger drive(const WorkloadSpec& spec, const Options& opts, Stack& stack, const Inputs& inputs,
             Tracer* tracer);

// ---- host speed ----

/// Times a fixed computation the library never runs, built from the two kinds
/// of arithmetic the served backbones do: a 64x64 fp32 product with 256 exps
/// (32 KiB, L1) and int8 dot products over 200 KiB (L2). It follows the
/// vCPU's speed and nothing a change to the library does.
double calibration_ms();
/// Median calibration time over the ledger's samples inside the window; 0
/// without any.
double window_host_ms(const Ledger& ledger);
/// Factor that takes a time measured while the calibration took `host_ms` to
/// the reference speed: kReferenceCalibrationMs / host_ms.
double reference_scale(double host_ms);

// ---- traced run (tracing.cpp) ----

/// Benchmark-side spans of a traced run, kept in memory and written out as
/// Chrome trace-event JSON when the run ends. Untraced runs make no Tracer.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us, end_us;  // since the tracer's epoch
    std::uint64_t request;    // 0 = not tied to one request
    std::uint64_t tid;
    std::int64_t parent;      // index of the span that caused it; -1 = none recorded
  };

  Tracer();
  double now_us() const;
  double to_us(Clock::time_point t) const;
  /// Returns the span's index, which later spans can name as their parent.
  std::int64_t record(const char* name, double start_us, double end_us, std::uint64_t request,
                      std::int64_t parent = -1);

  /// A request payload's heap address names its request until unbound; the
  /// decorators see the payload, not the request id.
  void bind(const void* key, std::uint64_t request);
  void unbind(const void* key, std::uint64_t request);
  std::uint64_t request_of(const void* key) const;

  // Observations the decorators collect for the replays.
  void note_abr_window(int steps, const abr::Observation& obs);
  void note_cjs_window(const std::vector<cjs::SchedObservation>& window);
  void note_kv_pages(std::int64_t pages);

  std::vector<Span> spans() const;
  std::vector<int> abr_windows() const;  // count per window length, index = steps
  std::vector<abr::Observation> abr_obs() const;  // the first ABR observations seen
  std::vector<std::vector<cjs::SchedObservation>> cjs_windows() const;
  std::int64_t kv_pages_peak() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<const void*, std::uint64_t> keys_;
  std::vector<int> abr_windows_;
  std::vector<abr::Observation> abr_obs_;
  std::vector<std::vector<cjs::SchedObservation>> cjs_windows_;
  std::int64_t cjs_calls_ = 0;
  std::int64_t kv_pages_peak_ = 0;
};

std::shared_ptr<vp::VpPredictor> traced(std::shared_ptr<vp::VpPredictor> inner, Tracer& tracer,
                                        const char* span, std::shared_ptr<nn::KvArena> arena);
std::shared_ptr<abr::AbrPolicy> traced(std::shared_ptr<abr::AbrPolicy> inner, Tracer& tracer,
                                       const char* span, int context_window);
std::shared_ptr<cjs::SchedPolicy> traced(std::shared_ptr<cjs::SchedPolicy> inner, Tracer& tracer,
                                         const char* span, int context_window);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of a traced run: spans and engine metadata from the run
/// itself, plus replays of each layer's public calls at the run's shapes.
/// `checks` receives the attribution checks (accounted and replay ratios).
std::vector<Metric> per_layer(const WorkloadSpec& spec, const Ledger& ledger, const Stack& stack,
                              const Tracer& tracer, std::vector<Metric>& checks);
void write_chrome_trace(const Tracer& tracer, const std::string& path);

}  // namespace netllm::e2e
