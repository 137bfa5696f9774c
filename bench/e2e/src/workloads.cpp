// Workloads of the end-to-end benchmark: seeded inputs, snapshot-backed cold
// set-ups, and the open and closed traffic loops that push requests through
// `serve::InferenceEngine` and record what happened to each one.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "e2e.hpp"
#include "llm/zoo.hpp"
#include "netllm/api.hpp"

namespace netllm::e2e {

// ---- small shared helpers ----

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

namespace {
Clock::time_point after(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}
}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

const char* task_name(Task t) {
  switch (t) {
    case Task::kVp: return "vp";
    case Task::kAbr: return "abr";
    default: return "cjs";
  }
}

// Rates and limits were fixed on the seed build, one compute lane, on a
// 4-vCPU AVX2 host whose speed moves by up to 60% (bench/e2e/README.md):
// vp_fleet keeps the lane under a sixth busy when the host is slow, so a
// slower host barely adds queueing; mixed_overload offers 1.4-2.3x the mixed
// capacity; the VP SLOs hold at the host's slowest, mixed_overload's is its
// deadline.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"vp_fleet", Loop::kOpen, 20.0, 0, 100.0, 1.0, 0.0, false},
      {"vp_wide_q8", Loop::kClosed, 0.0, 4, 750.0, 1.0, 0.0, true},
      {"mixed_overload", Loop::kOpen, 300.0, 0, 100.0, 0.7, 0.2, false},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::uint64_t kModelSeed = 0x6e65746c6c6d;  // weights are the same for every --seed
constexpr std::size_t kVpWindows = 256;              // 8x the arena's 32 warm-prefix slots
constexpr double kZipfExponent = 1.1;

bool overload_control(const WorkloadSpec& s) { return s.loop == Loop::kOpen && s.vp_share < 1.0; }
bool has_vp(const WorkloadSpec& s) { return s.vp_share > 0.0; }
bool has_abr(const WorkloadSpec& s) { return s.abr_share > 0.0; }
bool has_cjs(const WorkloadSpec& s) { return s.vp_share + s.abr_share < 1.0; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

llm::MiniGptConfig backbone_config(const WorkloadSpec& spec) {
  auto cfg = llm::zoo_entry("llama2-lite").cfg;  // 64-wide, 4 heads, 4 layers
  if (spec.wide_q8) {
    cfg.name = "e2e-wide-512";
    cfg.d_model = 512;
    cfg.n_heads = 8;
    cfg.d_ff = 1280;
  }
  return cfg;
}

serve::EngineConfig engine_config(const WorkloadSpec& spec) {
  serve::EngineConfig cfg;
  if (spec.wide_q8) cfg.backbone_dtype = tensor::quant::Dtype::kQ8_0;
  if (overload_control(spec)) {
    cfg.max_queue = 8;
    cfg.admission = serve::AdmissionPolicy::kShedOldest;
    cfg.deadline_ms = 100.0;
    cfg.cjs_priority = 2;
    cfg.abr_priority = 1;
    cfg.vp_priority = 0;
    cfg.retry_budget = 1;
  }
  return cfg;
}

}  // namespace

// ---- host speed ----

namespace {
volatile double g_calibration_sink = 0;
}  // namespace

double calibration_ms() {
  constexpr int n = 64;
  constexpr std::size_t rows = 400, cols = 512;  // 200 KiB of int8
  static const std::vector<float> a = [] {
    std::vector<float> v(n * n);
    for (int i = 0; i < n * n; ++i) v[i] = 0.001f * static_cast<float>(i % 97);
    return v;
  }();
  static const std::vector<std::int8_t> w = [] {
    std::vector<std::int8_t> v(rows * cols);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::int8_t>(i % 251 - 125);
    return v;
  }();
  std::vector<float> c(n * n);
  const auto pass = [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const float aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * a[k * n + j];
      }
    }
    double s = 0;
    for (int i = 0; i < 256; ++i) s += std::exp(-1e-3 * i * c[i]);
    std::int64_t dots = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int8_t* row = &w[r * cols];
      const std::int8_t* x = &w[(rows - 1 - r) * cols];
      std::int32_t acc = 0;
      for (std::size_t j = 0; j < cols; ++j) acc += row[j] * x[j];
      dots += acc;
    }
    return s + static_cast<double>(dots);
  };
  g_calibration_sink = pass();  // refills the caches after whatever ran before
  const auto t = Clock::now();
  g_calibration_sink = pass();
  return seconds_between(t, Clock::now()) * 1e3;
}

double reference_scale(double host_ms) { return kReferenceCalibrationMs / host_ms; }

double Ledger::host_ms_at(double t_s) const {
  if (host_samples.empty()) return 0.0;
  const auto after = std::upper_bound(
      host_samples.begin(), host_samples.end(), t_s,
      [](double t, const auto& sample) { return t < sample.first; });
  const auto at = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
      after - host_samples.begin() - 1, 0));
  // The median of that sample and its two neighbours: a single 0.1 ms
  // sample can land on an interrupt.
  std::vector<double> near;
  for (std::size_t i = at == 0 ? 0 : at - 1; i <= at + 1 && i < host_samples.size(); ++i) {
    near.push_back(host_samples[i].second);
  }
  return percentile(near, 50.0);
}

double Ledger::to_ref_at(double t_s) const { return reference_scale(host_ms_at(t_s)); }

double window_host_ms(const Ledger& ledger) {
  std::vector<double> in_window;
  for (const auto& [t, ms] : ledger.host_samples) {
    if (t >= ledger.window_start_s && t <= ledger.window_end_s) in_window.push_back(ms);
  }
  return percentile(in_window, 50.0);
}

// ---- inputs ----

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  const std::uint64_t mix = mix64(seed);
  if (has_vp(spec)) {
    auto setting = vp::vp_default_test();
    setting.seed ^= mix;
    const auto samples = vp::build_dataset(setting);
    core::Rng rng(mix ^ 0x7670);
    const auto order = rng.permutation(samples.size());
    const auto n = std::min(kVpWindows, samples.size());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = samples[order[i]];
      in.vp_windows.push_back({s.history, s.saliency});
      total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
      in.zipf_cdf.push_back(total);
    }
    for (auto& c : in.zipf_cdf) c /= total;
  }
  if (has_abr(spec)) {
    // BBA streaming sessions replayed back to back as one stream, one
    // observation per request; the adapter's rolling context caps itself at
    // its window.
    auto setting = abr::abr_default_test();
    setting.seed ^= mix;
    const abr::VideoModel video = abr::video_for(setting);
    baselines::Bba bba;
    const abr::QoeWeights weights;
    for (const auto& trace : abr::traces_for(setting)) {
      abr::StreamingSession session(video, trace);
      int prev = -1;
      while (!session.done()) {
        auto obs = session.observe();
        const int level = bba.choose_level(obs);
        const auto result = session.step(level);
        const double prev_kbps = video.bitrate_kbps(prev < 0 ? level : prev);
        in.abr.obs.push_back(std::move(obs));
        in.abr.results.push_back(result);
        in.abr.qoe.push_back(
            abr::qoe_chunk(weights, video.bitrate_kbps(level), prev_kbps, result.rebuffer_s));
        prev = level;
      }
    }
  }
  if (has_cjs(spec)) {
    // One fixed episode for every seed: its DAG sizes set the cost of a CJS
    // decision, and a seeded episode moved throughput and memory by up to 30%.
    const auto cfg = cjs::cjs_default_test();
    baselines::FifoScheduler fifo;
    cjs::run_workload(cfg, fifo, &in.cjs);
  }
  return in;
}

// ---- models ----

Snapshots write_snapshots(const WorkloadSpec& spec, const std::string& dir) {
  std::filesystem::create_directories(dir);
  Snapshots snaps;
  core::Rng rng(kModelSeed);
  auto backbone = std::make_shared<llm::MiniGpt>(backbone_config(spec), rng);
  snaps.backbone = dir + "/backbone.bin";
  backbone->save(snaps.backbone);
  // Adapter snapshots hold the trainables (encoders, heads, LoRA). A fresh
  // LoRA B is all zeros; small values make the adapted function differ from
  // the backbone's, as after a real adaptation.
  const auto save_adapter = [&](const nn::Module& adapter, const std::string& name) {
    for (auto& [param, t] : adapter.named_parameters()) {
      if (param.rfind("lora.", 0) != 0) continue;
      for (auto& x : t.mutable_data()) x += static_cast<float>(rng.gaussian(0.0, 0.02));
    }
    const auto path = dir + "/" + name + ".bin";
    adapter.save(path);
    return path;
  };
  // Each adapter injects LoRA into the backbone it wraps; only the adapter's
  // own parameters are saved, so one scratch backbone serves all three.
  if (has_vp(spec)) snaps.vp = save_adapter(adapt::VpAdapter(backbone, {}, rng), "vp");
  if (has_abr(spec)) snaps.abr = save_adapter(adapt::AbrAdapter(backbone, {}, rng), "abr");
  if (has_cjs(spec)) snaps.cjs = save_adapter(adapt::CjsAdapter(backbone, {}, rng), "cjs");
  return snaps;
}

namespace {

std::shared_ptr<llm::MiniGpt> load_backbone(const WorkloadSpec& spec, const Snapshots& snaps) {
  core::Rng rng(kModelSeed);  // initial weights are overwritten by the snapshot
  auto gpt = std::make_shared<llm::MiniGpt>(backbone_config(spec), rng);
  gpt->load(snaps.backbone);
  return gpt;
}

template <typename Adapter, typename Config>
std::shared_ptr<Adapter> load_adapter(const WorkloadSpec& spec, const Snapshots& snaps,
                                      const std::string& path) {
  core::Rng rng(kModelSeed);
  auto adapter = std::make_shared<Adapter>(load_backbone(spec, snaps), Config{}, rng);
  adapter->load(path);
  return adapter;
}

}  // namespace

Stack cold_setup(const WorkloadSpec& spec, const Snapshots& snaps, Tracer* tracer) {
  Stack st;
  if (!snaps.vp.empty()) {
    st.vp = load_adapter<adapt::VpAdapter, adapt::VpAdapterConfig>(spec, snaps, snaps.vp);
  }
  if (!snaps.abr.empty()) {
    st.abr = load_adapter<adapt::AbrAdapter, adapt::AbrAdapterConfig>(spec, snaps, snaps.abr);
  }
  if (!snaps.cjs.empty()) {
    st.cjs = load_adapter<adapt::CjsAdapter, adapt::CjsAdapterConfig>(spec, snaps, snaps.cjs);
  }
  const auto cfg = engine_config(spec);
  if (tracer) {
    // The decorators hide the adapters from the engine's dynamic casts, so
    // do here what the engine does to a bare adapter; check_engine_setup
    // keeps the two in step.
    if (st.vp) {
      st.arena = engine_arena(spec, st.vp->llm().config());
      if (st.arena) st.vp->set_kv_arena(st.arena);
    }
    if (cfg.backbone_dtype != tensor::quant::Dtype::kF32) {
      if (st.vp) st.vp->llm_shared()->quantize_backbone(cfg.backbone_dtype);
      if (st.abr) st.abr->llm_shared()->quantize_backbone(cfg.backbone_dtype);
      if (st.cjs) st.cjs->llm_shared()->quantize_backbone(cfg.backbone_dtype);
    }
  }
  if (!tracer) {
    st.engine = adapt::api::Serve(st.vp, st.abr, st.cjs, cfg);
    if (st.vp) st.arena = st.engine->kv_arena();
    return st;
  }
  const adapt::AbrAdapterConfig abr_cfg;
  const adapt::CjsAdapterConfig cjs_cfg;
  st.engine = adapt::api::Serve(
      st.vp ? traced(st.vp, *tracer, "adapt.vp", st.arena) : nullptr,
      st.abr ? traced(st.abr, *tracer, "adapt.abr", abr_cfg.context_window) : nullptr,
      st.cjs ? traced(st.cjs, *tracer, "adapt.cjs", cjs_cfg.context_window) : nullptr, cfg,
      traced(std::make_shared<baselines::LinearRegressionVp>(), *tracer, "fallback.vp", nullptr),
      traced(std::make_shared<baselines::Bba>(), *tracer, "fallback.abr", 0),
      traced(std::make_shared<baselines::FifoScheduler>(), *tracer, "fallback.cjs", 0));
  return st;
}

std::shared_ptr<nn::KvArena> engine_arena(const WorkloadSpec& spec,
                                          const llm::MiniGptConfig& llm) {
  const auto cfg = engine_config(spec);
  if (cfg.arena_pages <= 0) return nullptr;
  nn::KvArenaConfig acfg;
  acfg.page_rows = cfg.arena_page_rows;
  acfg.page_budget = cfg.arena_pages;
  acfg.prefix_entries = cfg.arena_prefix_entries;
  return std::make_shared<nn::KvArena>(llm.n_layers, llm.d_model, acfg);
}

void check_engine_setup(const WorkloadSpec& spec, const Stack& untraced) {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error("the engine's set-up differs from the traced run's (engine_arena): " +
                             what);
  };
  if (untraced.vp) {
    const auto& engine_side = untraced.arena;
    const auto ours = engine_arena(spec, untraced.vp->llm().config());
    if (!engine_side != !ours) fail("KV arena attached or not");
    if (ours) {
      if (engine_side->n_layers() != ours->n_layers() ||
          engine_side->d_model() != ours->d_model() ||
          engine_side->page_budget() != ours->page_budget()) {
        fail("KV arena shape or page budget");
      }
      // The page size shows in the pages one lease takes.
      const auto before = engine_side->pages_in_use();
      const auto a = engine_side->lease(2 * kVpHorizon + 1);
      const auto b = ours->lease(2 * kVpHorizon + 1);
      if (engine_side->pages_in_use() - before != ours->pages_in_use()) fail("KV page size");
    }
  }
  const auto dtype = engine_config(spec).backbone_dtype;
  std::vector<const llm::MiniGpt*> backbones;
  if (untraced.vp) backbones.push_back(&untraced.vp->llm());
  if (untraced.abr) backbones.push_back(&untraced.abr->llm());
  if (untraced.cjs) backbones.push_back(&untraced.cjs->llm());
  for (const auto* b : backbones) {
    if (b->backbone_dtype() != dtype) fail("backbone dtype");
  }
}

std::shared_ptr<adapt::VpAdapter> load_vp_reference(const WorkloadSpec& spec,
                                                    const Snapshots& snaps) {
  auto ref = load_adapter<adapt::VpAdapter, adapt::VpAdapterConfig>(spec, snaps, snaps.vp);
  const auto dtype = engine_config(spec).backbone_dtype;
  if (dtype != tensor::quant::Dtype::kF32) ref->llm_shared()->quantize_backbone(dtype);
  return ref;
}

// ---- traffic loops ----

namespace {

/// FNV-1a, 64 bit.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
};

/// CPU time of the whole process, every thread (ms).
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Samples the host's speed on the serving thread after a run() that
/// returned at `now_s`, at most every kHostSampleEveryS.
void sample_host_speed(double now_s, Ledger& ledger) {
  auto& samples = ledger.host_samples;
  if (!samples.empty() && now_s - samples.back().first < kHostSampleEveryS) return;
  samples.emplace_back(now_s, calibration_ms());
}

/// A kernel counter summed over the fp32 and the quantized matmuls.
double kernel_counter(const std::string& what) {
  return static_cast<double>(core::metrics::counter("kernels.matmul." + what).value() +
                             core::metrics::counter("kernels.qmatmul." + what).value());
}

/// Samples kernel counters and the trace-phase registry at the window edges.
/// Runs on its own thread so the traffic loops never pause for it.
class WindowMonitor {
 public:
  WindowMonitor(Clock::time_point t0, double start_s, double end_s, Ledger& ledger)
      : thread_([this, t0, start_s, end_s, &ledger] {
          std::this_thread::sleep_until(after(t0, start_s));
          // Zeroing the registry scopes the kernel counters and the trace.*
          // histograms to the window.
          core::metrics::reset();
          std::this_thread::sleep_until(after(t0, end_s));
          ledger.kernel_calls = kernel_counter("calls");
          ledger.kernel_flops = kernel_counter("flops");
          ledger.kernel_bytes = kernel_counter("bytes");
          ledger.peak_rss_mb = peak_rss_mb();
          for (const auto& [name, h] : core::metrics::snapshot().histograms) {
            if (name.rfind("trace.", 0) == 0) ledger.phase_p50_ms.emplace_back(name, h.p50);
          }
        }) {}
  ~WindowMonitor() { thread_.join(); }
  WindowMonitor(const WindowMonitor&) = delete;
  WindowMonitor& operator=(const WindowMonitor&) = delete;

 private:
  std::thread thread_;
};

/// A request in flight: its ticket, its ledger slot and what the output
/// checks need once the answer is back.
struct InFlight {
  serve::Ticket ticket;
  std::size_t slot = 0;
  Task task = Task::kVp;
  const void* key = nullptr;  // payload address the trace decorators see
  std::size_t input = 0;      // index into the replayed ABR / CJS stream
  int choices = 0;            // ABR ladder rungs / CJS runnable stages
  std::vector<vp::Viewport> history;
  tensor::Tensor saliency;
};

/// Reads one answer into its outcome, checks its range, adds it to the
/// client's digest and samples primary VP answers for the correctness gate.
class Collector {
 public:
  Collector(Ledger& ledger, Tracer* tracer) : ledger_(ledger), tracer_(tracer) {}

  /// `run_span` is the traced run() that served the request (-1 untraced).
  void collect(serve::InferenceEngine& engine, const InFlight& f, Outcome& o, Fnv* digest,
               std::int64_t run_span) {
    const serve::ResponseMeta* meta = nullptr;
    if (f.task == Task::kVp) {
      const auto& r = engine.vp_response(f.ticket);
      meta = &r.meta;
      bool ok = r.viewports.size() == static_cast<std::size_t>(kVpHorizon);
      for (const auto& v : r.viewports) {
        ok = ok && std::isfinite(v.roll) && std::isfinite(v.pitch) && std::isfinite(v.yaw);
      }
      if (!ok) error("vp answer with a wrong size or a non-finite viewport", o);
      if (digest) digest->add(r.viewports.data(), r.viewports.size() * sizeof(vp::Viewport));
      const bool primary =
          r.meta.source == serve::Source::kLlm || r.meta.source == serve::Source::kRetried;
      if (primary && vp_primary_++ % kVpCheckEvery == 0) {
        ledger_.vp_checks.push_back({f.history, f.saliency, r.viewports});
      }
    } else if (f.task == Task::kAbr) {
      const auto& r = engine.abr_response(f.ticket);
      meta = &r.meta;
      if (r.level < 0 || r.level >= f.choices) error("abr level out of range", o);
    } else {
      const auto& r = engine.cjs_response(f.ticket);
      meta = &r.meta;
      if (r.action.runnable_index < 0 || r.action.runnable_index >= f.choices ||
          r.action.cap_choice < 0 || r.action.cap_choice >= cjs::kNumCapChoices) {
        error("cjs action out of range", o);
      }
    }
    o.source = meta->source;
    o.admission_wait_ms = meta->admission_wait_ms;
    o.policy_wait_ms = meta->queue_wait_ms;
    if (tracer_) {
      tracer_->unbind(f.key, o.request);
      tracer_->record("request", tracer_->to_us(t0_) + o.sent_s * 1e6,
                      tracer_->to_us(t0_) + o.done_s * 1e6, o.request, run_span);
    }
  }

  void set_start(Clock::time_point t0) { t0_ = t0; }

 private:
  void error(const std::string& what, const Outcome& o) {
    ledger_.errors.push_back(what + " (request " + std::to_string(o.request) + ")");
  }

  Ledger& ledger_;
  Tracer* tracer_;
  Clock::time_point t0_{};
  std::int64_t vp_primary_ = 0;
};

/// Arrival times: exactly rate x duration arrivals scattered uniformly over
/// [begin, end) — a Poisson process conditioned on its count, so every run
/// offers the same load while keeping Poisson burstiness.
void add_arrivals(core::Rng& rng, double rate, double begin_s, double end_s,
                  std::vector<double>& out) {
  const auto n = static_cast<std::size_t>(std::llround(rate * (end_s - begin_s)));
  const auto first = out.size();
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.uniform(begin_s, end_s));
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

std::size_t zipf_index(core::Rng& rng, const std::vector<double>& cdf) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

// -- open loop: one thread submits whatever is due, then drains it --

void drive_open(const WorkloadSpec& spec, const Options& opts, Stack& st, const Inputs& in,
                Tracer* tracer, Ledger& ledger) {
  auto& engine = *st.engine;
  const double end_s = kWarmupS + opts.seconds;
  core::Rng rng(mix64(opts.seed) ^ 0x6f70656e);
  std::vector<double> due;
  add_arrivals(rng, spec.rate_rps, 0.0, kWarmupS, due);
  add_arrivals(rng, spec.rate_rps, kWarmupS, end_s, due);

  struct Arrival {
    Task task;
    std::size_t input;
  };
  std::vector<Arrival> arrivals;
  std::size_t next_abr = 0, next_cjs = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double u = rng.uniform();
    if (u < spec.vp_share) {
      arrivals.push_back({Task::kVp, zipf_index(rng, in.zipf_cdf)});
    } else if (u < spec.vp_share + spec.abr_share) {
      arrivals.push_back({Task::kAbr, next_abr++ % in.abr.obs.size()});
    } else {
      arrivals.push_back({Task::kCjs, next_cjs++ % in.cjs.size()});
    }
  }
  ledger.outcomes.resize(due.size());
  ledger.window_start_s = kWarmupS;
  ledger.window_end_s = end_s;

  if (has_abr(spec)) engine.begin_abr_session();
  if (has_cjs(spec)) engine.begin_cjs_episode();

  Collector collector(ledger, tracer);
  const auto t0 = Clock::now();
  collector.set_start(t0);
  WindowMonitor monitor(t0, kWarmupS, end_s, ledger);
  // Submitting and draining on one thread: no request waits for another
  // thread to wake. A request that falls due during a run() is submitted when
  // it returns, and its latency still counts from its due time.
  std::vector<InFlight> pending;
  std::size_t next = 0;
  while (next < due.size() || !pending.empty()) {
    const double now_s = seconds_between(t0, Clock::now());
    for (; next < due.size() && due[next] <= now_s; ++next) {
      InFlight f;
      f.slot = next;
      f.task = arrivals[next].task;
      f.input = arrivals[next].input;
      Outcome& o = ledger.outcomes[next];
      o.task = f.task;
      o.request = next + 1;
      o.sent_s = due[next];
      o.measured = due[next] >= kWarmupS;
      try {
        if (f.task == Task::kVp) {
          const auto& w = in.vp_windows[f.input];
          f.history = w.history;
          f.saliency = w.saliency;
          serve::VpRequest req{w.history, w.saliency, kVpHorizon};
          f.key = req.history.data();
          if (tracer) tracer->bind(f.key, o.request);
          f.ticket = engine.submit(std::move(req));
        } else if (f.task == Task::kAbr) {
          serve::AbrRequest req{in.abr.obs[f.input]};
          f.key = req.obs.past_throughput_mbps.data();
          f.choices = req.obs.num_levels;
          if (tracer) tracer->bind(f.key, o.request);
          f.ticket = engine.submit(std::move(req));
        } else {
          serve::CjsRequest req{in.cjs[f.input].obs};
          f.key = req.obs.runnable_rows.data();
          f.choices = static_cast<int>(req.obs.runnable_rows.size());
          if (tracer) tracer->bind(f.key, o.request);
          f.ticket = engine.submit(std::move(req));
        }
      } catch (const serve::Overloaded&) {
        if (tracer) tracer->unbind(f.key, o.request);
        continue;  // rejected: done_s stays < 0
      }
      pending.push_back(std::move(f));
    }
    if (pending.empty()) {
      // Idle until the next arrival: the generator is late only by how late
      // the wake-up comes.
      const auto when = after(t0, due[next]);
      std::this_thread::sleep_until(when);
      ledger.lateness_ms.push_back(seconds_between(when, Clock::now()) * 1e3);
      continue;
    }
    const double run_start_us = tracer ? tracer->now_us() : 0.0;
    const double cpu0_ms = process_cpu_ms();
    const auto report = engine.run();  // serves everything submitted so far
    const auto ret = Clock::now();
    const double done_s = seconds_between(t0, ret);
    ledger.run_cpu_ms.emplace_back(done_s, process_cpu_ms() - cpu0_ms);
    const std::int64_t run_span =
        tracer ? tracer->record("serve.run", run_start_us, tracer->to_us(ret), 0) : -1;
    if (done_s >= kWarmupS && done_s <= end_s) {
      ledger.drain_sizes.push_back(static_cast<double>(report.requests));
    }
    sample_host_speed(done_s, ledger);
    for (const auto& f : pending) {
      Outcome& o = ledger.outcomes[f.slot];
      o.done_s = done_s;
      collector.collect(engine, f, o, nullptr, run_span);
      // The replayed streams advance with the recorded outcome of each decision.
      if (f.task == Task::kAbr) {
        engine.observe_abr_result(in.abr.results[f.input], in.abr.qoe[f.input]);
      } else if (f.task == Task::kCjs) {
        engine.observe_cjs_reward(in.cjs[f.input].reward);
      }
    }
    pending.clear();
  }
}

// -- closed loop, one engine: `clients` requests outstanding, one drain each --

void drive_closed_vp(const WorkloadSpec& spec, const Options& opts, Stack& st, const Inputs& in,
                     Tracer* tracer, Ledger& ledger) {
  auto& engine = *st.engine;
  const double end_s = kWarmupS + opts.seconds;
  ledger.window_start_s = kWarmupS;
  ledger.window_end_s = end_s;
  const auto clients = static_cast<std::size_t>(spec.clients);
  std::vector<core::Rng> rngs;
  for (std::size_t c = 0; c < clients; ++c) rngs.emplace_back(mix64(opts.seed) ^ (0x636c69 + c));
  std::vector<Fnv> digests(clients);
  std::vector<int> digested(clients, 0);
  Collector collector(ledger, tracer);
  const auto t0 = Clock::now();
  collector.set_start(t0);
  WindowMonitor monitor(t0, kWarmupS, end_s, ledger);
  std::uint64_t next_request = 1;
  while (seconds_between(t0, Clock::now()) < end_s) {
    std::vector<InFlight> batch(clients);
    std::vector<Outcome> outcomes(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      // Every prompt is unique: a random window with its history jittered,
      // so no two requests share a prefix.
      auto& rng = rngs[c];
      const auto& w = in.vp_windows[static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(in.vp_windows.size()) - 1))];
      InFlight& f = batch[c];
      f.history = w.history;
      for (auto& v : f.history) {
        v.roll += rng.gaussian(0.0, 0.5);
        v.pitch += rng.gaussian(0.0, 0.5);
        v.yaw += rng.gaussian(0.0, 0.5);
      }
      f.saliency = w.saliency;
      Outcome& o = outcomes[c];
      o.client = static_cast<int>(c);
      o.request = next_request++;
      o.sent_s = seconds_between(t0, Clock::now());
      serve::VpRequest req{f.history, f.saliency, kVpHorizon};
      f.key = req.history.data();
      if (tracer) tracer->bind(f.key, o.request);
      f.ticket = engine.submit(std::move(req));
    }
    const double run_start_us = tracer ? tracer->now_us() : 0.0;
    const double cpu0_ms = process_cpu_ms();
    const auto report = engine.run();
    const auto ret = Clock::now();
    const double done_s = seconds_between(t0, ret);
    ledger.run_cpu_ms.emplace_back(done_s, process_cpu_ms() - cpu0_ms);
    const std::int64_t run_span =
        tracer ? tracer->record("serve.run", run_start_us, tracer->to_us(ret), 0) : -1;
    const bool measured = outcomes.front().sent_s >= kWarmupS;
    if (measured) ledger.drain_sizes.push_back(static_cast<double>(report.requests));
    sample_host_speed(done_s, ledger);
    for (std::size_t c = 0; c < clients; ++c) {
      Outcome& o = outcomes[c];
      o.done_s = done_s;
      o.measured = o.sent_s >= kWarmupS;
      const bool digest = digested[c] < kDigestPerClient;
      collector.collect(engine, batch[c], o, digest ? &digests[c] : nullptr, run_span);
      if (digest) ++digested[c];
      ledger.outcomes.push_back(o);
    }
  }
  Fnv all;
  for (std::size_t c = 0; c < clients; ++c) {
    all.add(&digests[c].h, sizeof(digests[c].h));
    ledger.digest_decisions += digested[c];
  }
  ledger.digest = all.h;
}

}  // namespace

Ledger drive(const WorkloadSpec& spec, const Options& opts, Stack& stack, const Inputs& inputs,
             Tracer* tracer) {
  Ledger ledger;
  if (spec.loop == Loop::kOpen) {
    drive_open(spec, opts, stack, inputs, tracer, ledger);
  } else {
    drive_closed_vp(spec, opts, stack, inputs, tracer, ledger);
  }
  return ledger;
}

}  // namespace netllm::e2e
