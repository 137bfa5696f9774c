// Observability overhead (DESIGN.md §11): cost of a counter bump, a
// histogram record and a trace span with metrics enabled vs disabled. The
// end-to-end cost of the metrics layer on serving is bench/e2e's
// trace_overhead. Emits BENCH_metrics.json (argv[1]) and drops a registry
// export to metrics.json (argv[2]) so run_benches.sh archives it alongside
// the BENCH files.
#include <array>
#include <fstream>
#include <iostream>
#include <string>

#include "core/metrics.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "support/bench_common.hpp"

namespace nm = netllm::core::metrics;
namespace nt = netllm::core::trace;
using netllm::core::Table;
using netllm::core::Timer;
using netllm::core::print_banner;

namespace {

double ns_per_op(std::int64_t iters, double elapsed_ms) {
  return elapsed_ms * 1e6 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_metrics.json";
  const std::string registry_path = argc > 2 ? argv[2] : "metrics.json";
  std::cout << "Observability overhead (metrics/trace layer on vs off)\n";

  // ---- hot-path micro costs ----
  auto& c = nm::counter("bench.metrics.counter");
  auto& h = nm::histogram("bench.metrics.hist");
  constexpr std::int64_t kBumps = 20'000'000;
  constexpr std::int64_t kRecords = 5'000'000;
  constexpr std::int64_t kSpans = 5'000'000;

  auto measure = [&](bool on) {
    nm::set_enabled(on);
    Timer tb;
    for (std::int64_t i = 0; i < kBumps; ++i) c.add();
    const double bump_ns = ns_per_op(kBumps, tb.elapsed_ms());
    Timer th;
    for (std::int64_t i = 0; i < kRecords; ++i) h.record(0.5);
    const double record_ns = ns_per_op(kRecords, th.elapsed_ms());
    Timer ts;
    for (std::int64_t i = 0; i < kSpans; ++i) {
      nt::Span span(nt::Phase::kEncode);
    }
    const double span_ns = ns_per_op(kSpans, ts.elapsed_ms());
    return std::array<double, 3>{bump_ns, record_ns, span_ns};
  };
  const auto on_costs = measure(true);
  const auto off_costs = measure(false);
  nm::set_enabled(true);

  print_banner(std::cout, "hot-path cost (ns/op)");
  Table micro({"op", "enabled ns", "disabled ns"});
  micro.add_row({"counter.add", Table::num(on_costs[0], 2), Table::num(off_costs[0], 2)});
  micro.add_row({"histogram.record", Table::num(on_costs[1], 2), Table::num(off_costs[1], 2)});
  micro.add_row({"trace.span", Table::num(on_costs[2], 2), Table::num(off_costs[2], 2)});
  micro.print(std::cout);

  // ---- JSON export ----
  std::ofstream json(out_path);
  json << "{\n  \"hot_path_ns\": {\n"
       << "    \"counter_add_enabled\": " << on_costs[0]
       << ",\n    \"counter_add_disabled\": " << off_costs[0]
       << ",\n    \"histogram_record_enabled\": " << on_costs[1]
       << ",\n    \"histogram_record_disabled\": " << off_costs[1]
       << ",\n    \"span_enabled\": " << on_costs[2]
       << ",\n    \"span_disabled\": " << off_costs[2] << "\n  }\n}\n";
  std::cout << "wrote " << out_path << "\n";

  // Registry dump for the archive next to the BENCH files.
  nm::write_json(registry_path);
  std::cout << "wrote " << registry_path << "\n";
  return 0;
}
