// netllm_e2e: one workload of the end-to-end serving benchmark per process.
//
//   netllm_e2e --workload vp_fleet --seed 1 --seconds 20 --trace 0 [--result FILE]
//
// Writes cold-start snapshots under bench/e2e/out, sets the serving stack up from
// them 5-50 times (setup_s is the median), warms up for 2 s, measures for
// --seconds, then re-derives sampled answers with the reference path. Any
// failed check exits non-zero without printing metrics. The last stdout line
// is a JSON object: the end-to-end metrics untraced, the per-layer metrics
// with --trace 1. bench/e2e/README.md defines every metric.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "e2e.hpp"
#include "tensor/isa.hpp"

namespace netllm::e2e {
namespace {

// setup_s is a median over cold set-ups: at least kMinSetups, then more
// until kSetupBudgetS of set-up time is spent, at most kMaxSetups. A 10 ms
// set-up is timed 50 times, a 0.5 s one 5 times.
constexpr std::size_t kMinSetups = 5, kMaxSetups = 50;
constexpr double kSetupBudgetS = 2.0;

// Snapshots and Chrome traces, relative to the repository root.
const std::string kOutDir = "bench/e2e/out";

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--result") {
      o.result_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!find_workload(o.workload)) {
    throw std::invalid_argument("unknown --workload '" + o.workload + "'");
  }
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds is required, in [1, 600]");
  }
  return o;
}

/// Requests sent, answered by the adapted model, and not (fallback, shed,
/// rejected) in one phase of the run.
struct PhaseCount {
  std::int64_t sent = 0, succeeded = 0, fallback = 0, shed = 0, rejected = 0;
  std::int64_t failed() const { return sent - succeeded; }
  void add(const Outcome& o) {
    ++sent;
    if (o.done_s < 0) {
      ++rejected;
    } else if (o.primary()) {
      ++succeeded;
    } else if (o.source == serve::Source::kShed) {
      ++shed;
    } else {
      ++fallback;
    }
  }
};

/// Bitwise check of every sampled VP answer against predict_uncached on a
/// reference adapter loaded from the same snapshots.
PhaseCount verify_vp(const WorkloadSpec& spec, const Snapshots& snaps, const Ledger& ledger,
                     std::vector<std::string>& errors) {
  PhaseCount pc;
  if (ledger.vp_checks.empty()) return pc;
  const auto ref = load_vp_reference(spec, snaps);
  std::vector<char> same(ledger.vp_checks.size(), 0);
  const auto n = static_cast<std::int64_t>(same.size());
  core::parallel_for(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (auto i = static_cast<std::size_t>(b); i < static_cast<std::size_t>(e); ++i) {
      const auto& c = ledger.vp_checks[i];
      const auto want = ref->predict_uncached(c.history, c.saliency, kVpHorizon);
      same[i] = want.size() == c.answer.size() &&
                std::memcmp(want.data(), c.answer.data(), want.size() * sizeof(vp::Viewport)) == 0;
    }
  });
  for (std::size_t i = 0; i < same.size(); ++i) {
    ++pc.sent;
    if (same[i]) {
      ++pc.succeeded;
    } else {
      errors.push_back("vp check " + std::to_string(i) + ": answer differs from predict_uncached");
    }
  }
  return pc;
}

int run(int argc, char** argv) {
  if (std::string(NETLLM_E2E_BUILD_TYPE) != "Release") {
    std::cerr << "netllm_e2e: built as '" << NETLLM_E2E_BUILD_TYPE
              << "'; benchmark numbers come only from a Release build (bench/e2e/run.sh)\n";
    return 2;
  }
  const Options opts = parse(argc, argv);
  const WorkloadSpec& spec = *find_workload(opts.workload);
  std::unique_ptr<Tracer> tracer = opts.trace ? std::make_unique<Tracer>() : nullptr;

  const Inputs inputs = make_inputs(spec, opts.seed);
  const std::string snap_dir =
      kOutDir + "/snap-" + spec.name + "-" + std::to_string(static_cast<long>(getpid()));
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{snap_dir};
  const Snapshots snaps = write_snapshots(spec, snap_dir);

  // Untraced set-ups: the first is checked against the traced path's, the
  // last serves the run. A traced run times none and serves a traced one.
  // Each is scaled to the reference speed by a calibration taken after it.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Stack stack;
  while (setup_s.size() < kMaxSetups &&
         (setup_s.size() < kMinSetups || setup_total_s < kSetupBudgetS)) {
    stack = Stack{};  // drop the previous set-up first: every one starts cold
    const auto t = Clock::now();
    stack = cold_setup(spec, snaps, nullptr);
    const double wall_s = seconds_between(t, Clock::now());
    setup_s.push_back(wall_s * reference_scale(calibration_ms()));
    setup_total_s += wall_s;
    if (setup_s.size() == 1) check_engine_setup(spec, stack);
    if (tracer) break;
  }
  if (tracer) {
    stack = Stack{};
    stack = cold_setup(spec, snaps, tracer.get());
  }
  const auto setups = static_cast<std::int64_t>(setup_s.size()) + (tracer ? 1 : 0);

  Ledger ledger = drive(spec, opts, stack, inputs, tracer.get());
  const PhaseCount verify = verify_vp(spec, snaps, ledger, ledger.errors);

  // The window holds the requests sent inside it. Latency samples are the
  // adapted model's answers; a fallback or shed answer is an SLO miss.
  // Each latency is also scaled to the reference speed by the calibration
  // sample taken when its run() returned.
  PhaseCount warmup, measure, cooldown;
  PhaseCount per_task[3];
  std::vector<double> latency, ref_latency, task_latency[3];
  double within_slo = 0, last_done_s = ledger.window_start_s;
  for (const auto& o : ledger.outcomes) {
    if (!o.measured) {
      (o.sent_s < ledger.window_start_s ? warmup : cooldown).add(o);
      continue;
    }
    measure.add(o);
    per_task[static_cast<int>(o.task)].add(o);
    if (!o.primary()) continue;
    latency.push_back(o.latency_ms());
    ref_latency.push_back(o.latency_ms() * ledger.to_ref_at(o.done_s));
    task_latency[static_cast<int>(o.task)].push_back(o.latency_ms());
    last_done_s = std::max(last_done_s, o.done_s);
    if (o.latency_ms() <= spec.slo_ms) ++within_slo;
  }
  // CPU of the run() calls that returned inside the window, each scaled by
  // its own calibration sample.
  double cpu_ms = 0, ref_cpu_ms = 0;
  for (const auto& [t, ms] : ledger.run_cpu_ms) {
    if (t < ledger.window_start_s || t > ledger.window_end_s) continue;
    cpu_ms += ms;
    ref_cpu_ms += ms * ledger.to_ref_at(t);
  }
  std::cout << "netllm-e2e " << spec.name << " seed=" << opts.seed << " seconds=" << opts.seconds
            << " trace=" << opts.trace << "\n";
  const auto print_phase = [](const char* name, const PhaseCount& p) {
    std::cout << "phase " << name << ": sent " << p.sent << " succeeded " << p.succeeded
              << " failed " << p.failed() << " (fallback " << p.fallback << ", shed " << p.shed
              << ", rejected " << p.rejected << ")\n";
  };
  print_phase("setup", PhaseCount{setups, setups, 0, 0, 0});
  print_phase("warmup", warmup);
  print_phase("measure", measure);
  print_phase("cooldown", cooldown);
  print_phase("verify", verify);
  if (measure.succeeded == 0) ledger.errors.push_back("no decision answered inside the window");
  const double host_ms = window_host_ms(ledger);
  if (host_ms <= 0) ledger.errors.push_back("no host-speed sample inside the window");
  if (!ledger.errors.empty()) {
    for (const auto& e : ledger.errors) std::cerr << "netllm_e2e: FAILED " << e << "\n";
    return 3;
  }

  const auto attempted = static_cast<double>(measure.sent);
  const auto primary = static_cast<double>(measure.succeeded);
  // Rates run from the window's start to its last answer from the model.
  const double span_s = last_done_s - ledger.window_start_s;
  // Times scale with the host's speed; rates and ratios do not in every
  // workload (an open loop below capacity answers what is offered), so only
  // the times are reported at the reference speed.
  const std::vector<Metric> e2e = {
      {"e2e_p50_ms", percentile(ref_latency, 50.0), "ref_ms"},
      {"e2e_p90_ms", percentile(ref_latency, 90.0), "ref_ms"},
      {"cpu_ms_per_decision", ratio(ref_cpu_ms, primary), "ref_ms"},
      {"setup_s", percentile(setup_s, 50.0), "s"},
      {"peak_rss_mb", ledger.peak_rss_mb, "MB"},
  };
  std::vector<Metric> extra = {
      {"wall.e2e_p50_ms", percentile(latency, 50.0), "ms"},
      {"wall.e2e_p90_ms", percentile(latency, 90.0), "ms"},
      {"wall.cpu_ms_per_decision", ratio(cpu_ms, primary), "ms"},
      {"host_calibration_ms", host_ms, "ms"},
      {"decisions_per_s", ratio(primary, span_s), "1/s"},
      {"goodput_rps", ratio(within_slo, span_s), "1/s"},
      {"slo_attainment", ratio(within_slo, attempted), "fraction"},
      {"llm_answer_ratio", ratio(primary, attempted), "fraction"},
      {"fail_ratio", (attempted - primary) / attempted, "fraction"},
      {"latency_samples", primary, "count"},
      {"slo_ms", spec.slo_ms, "ms"},
      {"drains", static_cast<double>(ledger.drain_sizes.size()), "count"},
  };
  // Per task, over the whole window: a scheduler change that helps one task
  // at another's cost shows here.
  for (int t = 0; t < 3; ++t) {
    const auto& p = per_task[t];
    if (p.sent == 0 || p.sent == measure.sent) continue;
    const std::string task = task_name(static_cast<Task>(t));
    const auto answered = static_cast<double>(p.succeeded);
    extra.push_back({task + ".decisions_per_s", ratio(answered, span_s), "1/s"});
    extra.push_back(
        {task + ".llm_answer_ratio", ratio(answered, static_cast<double>(p.sent)), "fraction"});
    extra.push_back({task + ".e2e_p90_ms", percentile(task_latency[t], 90.0), "ms"});
  }
  if (spec.loop == Loop::kOpen) {
    extra.push_back({"offered_rps", spec.rate_rps, "1/s"});
    extra.push_back({"gen_lateness_p99_ms", percentile(ledger.lateness_ms, 99.0), "ms"});
  } else {
    extra.push_back({"digest_decisions", static_cast<double>(ledger.digest_decisions), "count"});
  }
  std::vector<Metric> layers, checks;
  if (tracer) {
    layers = per_layer(spec, ledger, stack, *tracer, checks);
    std::filesystem::create_directories(kOutDir);
    write_chrome_trace(*tracer, kOutDir + "/trace-" + spec.name + ".json");
  }

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(ledger.digest));
  const auto isa_active = tensor::isa::isa_name(tensor::isa::active_isa());
  const auto isa_best = tensor::isa::isa_name(tensor::isa::best_isa());
  std::ostringstream prov;
  prov << "{\"git_sha\": " << json_string(env_or("NETLLM_E2E_GIT_SHA", "unknown"))
       << ", \"git_dirty\": " << json_string(env_or("NETLLM_E2E_GIT_DIRTY", "unknown"))
       << ", \"build_type\": " << json_string(NETLLM_E2E_BUILD_TYPE)
       << ", \"compiler\": " << json_string(NETLLM_E2E_COMPILER)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"netllm_threads\": " << json_string(env_or("NETLLM_THREADS", "unset"))
       << ", \"pool_threads\": " << core::global_threads()
       << ", \"isa_active\": " << json_string(isa_active)
       << ", \"isa_best\": " << json_string(isa_best)
       << ", \"netllm_metrics\": " << json_string(env_or("NETLLM_METRICS", "default"))
       << ", \"metrics_enabled\": " << (core::metrics::enabled() ? "true" : "false")
       << ", \"seed\": " << opts.seed << "}";

  const auto print_metrics = [&](const std::vector<Metric>& ms) {
    for (const auto& m : ms) {
      std::cout << spec.name << "." << m.name << " = " << json_number(m.value) << " " << m.unit
                << "\n";
    }
  };
  std::cout << "provenance: " << prov.str() << "\n";
  print_metrics(e2e);
  print_metrics(extra);
  if (spec.loop == Loop::kClosed) std::cout << spec.name << ".decision_digest = " << digest << "\n";
  print_metrics(layers);
  print_metrics(checks);

  if (!opts.result_path.empty()) {
    const auto phase_json = [](const PhaseCount& p) {
      return "{\"sent\": " + std::to_string(p.sent) +
             ", \"succeeded\": " + std::to_string(p.succeeded) +
             ", \"failed\": " + std::to_string(p.failed()) + "}";
    };
    std::ofstream out(opts.result_path);
    out << "{\"schema\": \"netllm-e2e-result/1\", \"workload\": " << json_string(spec.name)
        << ", \"seed\": " << opts.seed << ", \"seconds\": " << json_number(opts.seconds)
        << ", \"trace\": " << (opts.trace ? "true" : "false")
        << ", \"loop\": " << json_string(spec.loop == Loop::kOpen ? "open" : "closed")
        << ", \"correct\": true, \"provenance\": " << prov.str()
        << ", \"phases\": {\"setup\": " << phase_json(PhaseCount{setups, setups, 0, 0, 0})
        << ", \"warmup\": " << phase_json(warmup) << ", \"measure\": " << phase_json(measure)
        << ", \"cooldown\": " << phase_json(cooldown)
        << ", \"verify\": " << phase_json(verify) << "}"
        << ", \"metrics\": " << metrics_json(e2e) << ", \"extra\": " << metrics_json(extra)
        << ", \"decision_digest\": " << (spec.loop == Loop::kClosed ? json_string(digest) : "null")
        << ", \"per_layer\": " << metrics_json(layers) << ", \"checks\": " << metrics_json(checks)
        << "}\n";
    if (!out) throw std::runtime_error("cannot write " + opts.result_path);
  }
  // The last line: rejected requests are the only operations without a valid answer.
  std::cout << "{\"correct\": true, \"attempted\": " << measure.sent
            << ", \"failed\": " << measure.rejected
            << ", \"metrics\": " << metrics_json(opts.trace ? layers : e2e) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace netllm::e2e

int main(int argc, char** argv) {
  try {
    return netllm::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "netllm_e2e: " << e.what() << "\n";
    return 1;
  }
}
