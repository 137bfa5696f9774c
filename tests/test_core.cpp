// Unit tests for core utilities: deterministic RNG, statistics, tables,
// timers, the snapshot checksum.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/crc32.hpp"
#include "core/fault.hpp"
#include "core/threadpool.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"

namespace nc = netllm::core;

TEST(Rng, DeterministicForSameSeed) {
  nc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  nc::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  nc::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, RandintInclusiveBounds) {
  nc::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.randint(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -2);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RandintSingleton) {
  nc::Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.randint(5, 5), 5);
}

TEST(Rng, GaussianMoments) {
  nc::Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  nc::Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, WeightedChoiceRespectsWeights) {
  nc::Rng rng(19);
  const double w[] = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_choice(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, WeightedChoiceAllZeroFallsBackToUniform) {
  nc::Rng rng(23);
  const double w[] = {0.0, 0.0, 0.0, 0.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_choice(w)];
  for (int c : counts) EXPECT_GT(c, 1500);
}

TEST(Rng, CategoricalBoundaries) {
  nc::Rng rng(29);
  const float p[] = {1.0f, 0.0f};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(p), 0u);
}

TEST(Rng, PermutationIsPermutation) {
  nc::Rng rng(31);
  auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (auto i : perm) {
    ASSERT_LT(i, 50u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  nc::Rng a(42);
  auto b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// Every saved snapshot stores these checksums, so the table must never
// change: pin the standard CRC-32 check value, plus chaining across a split.
TEST(Checksum, Crc32KnownAnswer) {
  EXPECT_EQ(nc::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(nc::crc32("56789", 5, nc::crc32("1234", 4)), 0xCBF43926u);
  EXPECT_EQ(nc::crc32("", 0), 0u);

  // The bytewise definition, one bit at a time.
  const auto reference = [](const unsigned char* p, std::size_t n, std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> buf(8 + 80);
  nc::Rng rng(11);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.randint(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 80; ++len) {
      const auto want = reference(p, len, 0);
      ASSERT_EQ(nc::crc32(p, len), want) << "offset " << offset << " len " << len;
      // Any split chains back to the one-shot value.
      for (std::size_t cut = 0; cut <= len; cut += 7) {
        ASSERT_EQ(nc::crc32(p + cut, len - cut, nc::crc32(p, cut)), want)
            << "offset " << offset << " len " << len << " cut " << cut;
      }
      ASSERT_EQ(nc::crc32(p, len, 0x12345678u), reference(p, len, 0x12345678u));
    }
  }
}

TEST(Stats, MeanAndStddev) {
  const double xs[] = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(nc::mean(xs), 3.0);
  EXPECT_NEAR(nc::stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(nc::percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(nc::percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(nc::percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const double xs[] = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(nc::percentile(xs, 50), 25.0);
}

TEST(Stats, BoxSummary) {
  const double xs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto b = nc::box_summary(xs);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);
  EXPECT_DOUBLE_EQ(b.avg, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 7.0);
}

TEST(Stats, CdfPointsMonotone) {
  const double xs[] = {3, 1, 2};
  const auto pts = nc::cdf_points(xs);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].first, pts[i].first);
    EXPECT_LT(pts[i - 1].second, pts[i].second);
  }
}

TEST(Stats, MinMaxNormalise) {
  const double xs[] = {2, 4, 6};
  const auto norm = nc::min_max_normalise(xs);
  EXPECT_DOUBLE_EQ(norm[0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1], 0.5);
  EXPECT_DOUBLE_EQ(norm[2], 1.0);
}

TEST(Stats, MinMaxNormaliseConstantInput) {
  const double xs[] = {5, 5, 5};
  const auto norm = nc::min_max_normalise(xs);
  for (double v : norm) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Stats, ImprovementAndReduction) {
  EXPECT_NEAR(nc::improvement_pct(1.2, 1.0), 20.0, 1e-9);
  EXPECT_NEAR(nc::reduction_pct(0.8, 1.0), 20.0, 1e-9);
}

TEST(Table, RendersAlignedAsciiAndCsv) {
  nc::Table t({"method", "qoe"});
  t.add_row({"NetLLM", nc::Table::num(1.234, 2)});
  t.add_row({"BBA", nc::Table::num(0.9, 2)});
  std::ostringstream ascii, csv;
  t.print(ascii);
  t.print_csv(csv);
  EXPECT_NE(ascii.str().find("NetLLM"), std::string::npos);
  EXPECT_NE(ascii.str().find("1.23"), std::string::npos);
  EXPECT_EQ(csv.str(), "method,qoe\nNetLLM,1.23\nBBA,0.90\n");
}

TEST(Table, RejectsArityMismatch) {
  nc::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(StopWatch, AccumulatesDisjointIntervals) {
  nc::StopWatch sw;
  EXPECT_EQ(sw.total_s(), 0.0);
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.stop();
  EXPECT_GE(sw.total_s(), 0.015);
  const double after_first = sw.total_s();
  sw.stop();  // stop while not running is a no-op
  EXPECT_EQ(sw.total_s(), after_first);
}

TEST(StopWatch, DoubleStartBanksRunningInterval) {
  // Regression: start() while running used to discard the in-flight
  // interval; it must be accumulated into the total instead.
  nc::StopWatch sw;
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.stop();
  EXPECT_GE(sw.total_s(), 0.030);
}

// ---- Rng state round trips (durable-session satellite) ----

TEST(Rng, StateRoundTripResumesStreamBitwise) {
  nc::Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.next_u64();  // advance into the stream
  const auto st = rng.state();
  nc::Rng other(999);  // different seed: state must fully overwrite it
  other.set_state(st);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rng.next_u64(), other.next_u64());
    EXPECT_EQ(rng.randint(0, 1000), other.randint(0, 1000));
    EXPECT_EQ(rng.uniform(-1.0, 1.0), other.uniform(-1.0, 1.0));
  }
}

TEST(Rng, StateRoundTripPreservesCachedGaussian) {
  nc::Rng rng(7);
  // Box-Muller draws two variates per transform and caches the second. An
  // odd number of draws leaves one cached — a resumed stream must emit it
  // next, or gaussian consumers diverge by exactly one draw after restore.
  (void)rng.gaussian();
  const auto st = rng.state();
  EXPECT_TRUE(st.has_cached_gaussian);
  nc::Rng other(8);
  other.set_state(st);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.gaussian(), other.gaussian());
}

TEST(Rng, StateWithoutCachedGaussianRestoresCleanly) {
  nc::Rng rng(7);
  (void)rng.gaussian();
  (void)rng.gaussian();  // even count: cache drained
  const auto st = rng.state();
  EXPECT_FALSE(st.has_cached_gaussian);
  nc::Rng other(9);
  other.set_state(st);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.gaussian(), other.gaussian());
}

// ---- Stop flag & signal guard (durable-session satellite) ----

TEST(Signal, StopFlagIsStickyUntilCleared) {
  nc::clear_stop();
  EXPECT_FALSE(nc::stop_requested());
  nc::request_stop();
  EXPECT_TRUE(nc::stop_requested());
  EXPECT_TRUE(nc::stop_requested());  // sticky: reads do not consume it
  nc::clear_stop();
  EXPECT_FALSE(nc::stop_requested());
}

TEST(Signal, GuardRoutesSigtermToStopFlag) {
  nc::clear_stop();
  {
    nc::SignalGuard guard;
    EXPECT_FALSE(nc::stop_requested());
    std::raise(SIGTERM);
    EXPECT_TRUE(nc::stop_requested());
  }
  // The guard restored the previous disposition; the flag itself persists
  // until explicitly cleared so a drain in progress still sees it.
  EXPECT_TRUE(nc::stop_requested());
  nc::clear_stop();
}

TEST(Signal, GuardRoutesSigintToStopFlag) {
  nc::clear_stop();
  nc::SignalGuard guard;
  std::raise(SIGINT);
  EXPECT_TRUE(nc::stop_requested());
  nc::clear_stop();
}

// ---- Fault-site enumeration vs DESIGN.md (durable-session satellite) ----

TEST(Fault, SitesEnumerationMatchesDesignDoc) {
  std::set<std::string> code_sites;
  for (const char* s : nc::fault::sites()) code_sites.insert(s);
  ASSERT_FALSE(code_sites.empty());

  std::ifstream is(std::string(NETLLM_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(is.good()) << "DESIGN.md not found under NETLLM_SOURCE_DIR";
  const std::string doc((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  // Sites are documented as `"<component>.<point>"` (backtick-quoted); that
  // spelling is reserved for fault sites in DESIGN.md.
  std::set<std::string> doc_sites;
  const std::regex pat("`\"([a-z_]+\\.[a-z_]+)\"`");
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), pat);
       it != std::sregex_iterator(); ++it) {
    doc_sites.insert((*it)[1].str());
  }
  // Both directions: every documented site must exist in the registry, and
  // every registered site must be documented.
  EXPECT_EQ(doc_sites, code_sites);

  // Every registered site must also be hooked somewhere: its name passed as
  // a quoted literal to a hook call (`check("serve.batch")`,
  // `FAULT_POINT("serialize.fsync")`, ...) in a source file other than the
  // registry itself. A site whose hooks were deleted fails here.
  std::set<std::string> hooked;
  const std::filesystem::path src = std::filesystem::path(NETLLM_SOURCE_DIR) / "src";
  for (const auto& entry : std::filesystem::recursive_directory_iterator(src)) {
    const auto& path = entry.path();
    if (path.extension() != ".cpp" && path.extension() != ".hpp") continue;
    if (path.parent_path().filename() == "core" && path.stem() == "fault") continue;
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    for (const auto& site : code_sites) {
      if (text.find("(\"" + site + "\"") != std::string::npos) hooked.insert(site);
    }
  }
  EXPECT_EQ(hooked, code_sites) << "a fault::sites() entry has no hook under src/";
}

// ---- NETLLM_THREADS parsing (PR 10 bugfix: the old atoi silently treated
// garbage and explicit zero as "unset-ish" values) ----

namespace {

/// Sets an env var for one test and restores the previous value on exit.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) saved_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

int hardware_default() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace

TEST(ThreadCount, CleanPositiveIntegerIsAccepted) {
  EnvVarGuard guard("NETLLM_THREADS", "4");
  EXPECT_EQ(nc::default_thread_count(), 4);
}

TEST(ThreadCount, OneIsAccepted) {
  EnvVarGuard guard("NETLLM_THREADS", "1");
  EXPECT_EQ(nc::default_thread_count(), 1);
}

TEST(ThreadCount, UnsetFallsThroughToHardware) {
  EnvVarGuard guard("NETLLM_THREADS", nullptr);
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, ZeroIsRejected) {
  // Explicit 0 means "you asked for no lanes" — not a valid pool size, so it
  // falls through rather than silently behaving like unset via atoi's 0.
  EnvVarGuard guard("NETLLM_THREADS", "0");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, NegativeIsRejected) {
  EnvVarGuard guard("NETLLM_THREADS", "-2");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, GarbageIsRejected) {
  // atoi("abc") == 0 used to slip through as the "unset" behaviour by luck;
  // the strict parse rejects it explicitly.
  EnvVarGuard guard("NETLLM_THREADS", "abc");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, TrailingJunkIsRejected) {
  // strtol would stop at "4" and yield 4 — a typo like "4x" must not half
  // parse; the whole token has to be a number.
  EnvVarGuard guard("NETLLM_THREADS", "4abc");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, EmptyStringIsRejected) {
  EnvVarGuard guard("NETLLM_THREADS", "");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, WhitespaceOnlyIsRejected) {
  EnvVarGuard guard("NETLLM_THREADS", "  ");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}

TEST(ThreadCount, HugeValueClampsToPoolCap) {
  EnvVarGuard guard("NETLLM_THREADS", "300");
  EXPECT_EQ(nc::default_thread_count(), 256);
}

TEST(ThreadCount, OverflowIsRejected) {
  EnvVarGuard guard("NETLLM_THREADS", "99999999999999999999");
  EXPECT_EQ(nc::default_thread_count(), hardware_default());
}
