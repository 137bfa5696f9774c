// Checkpoint hardening tests: snapshot round trips, corruption detection
// (bit flips, truncation, bad magic) across every record kind, rejection of
// pre-v4 containers, atomic-write crash simulation via the fault injector,
// and retry-with-backoff saves.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/fault.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace nt = netllm::tensor;
namespace fault = netllm::core::fault;
using netllm::core::Rng;

namespace {

std::filesystem::path tmp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

using FloatTensors = std::vector<std::pair<std::string, std::vector<float>>>;

/// Handcrafted pre-v4 container holding rank-1 fp32 tensors: v1 has no
/// checksums and no footer, v2 adds per-tensor CRCs and the file CRC footer,
/// v3 adds a (here empty) section block before the footer.
std::string legacy_container(std::uint32_t version, const FloatTensors& tensors) {
  std::string buf = "NLLM";
  append_pod(buf, version);
  append_pod(buf, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, data] : tensors) {
    append_pod(buf, static_cast<std::uint32_t>(name.size()));
    buf.append(name);
    append_pod(buf, std::uint32_t{1});  // rank
    append_pod(buf, static_cast<std::int64_t>(data.size()));
    const auto bytes = data.size() * sizeof(float);
    if (version >= 2) append_pod(buf, netllm::core::crc32(data.data(), bytes));
    buf.append(reinterpret_cast<const char*>(data.data()), bytes);
  }
  if (version >= 3) append_pod(buf, std::uint32_t{0});  // section count
  if (version >= 2) append_pod(buf, netllm::core::crc32(buf.data(), buf.size()));
  return buf;
}

/// One file holding every record kind: fp32, Q8_0 and Q4_0 records plus two
/// sections. Loads cleanly with `load_all`.
std::string mixed_image(const std::filesystem::path& path) {
  namespace nq = netllm::tensor::quant;
  Rng rng(9);
  const auto a = nt::Tensor::randn({3, 5}, rng, 1.0f, true);
  const auto wq8 = nq::quantize(nq::Dtype::kQ8_0, nt::Tensor::randn({2, 40}, rng, 1.0f));
  const auto wq4 = nq::quantize(nq::Dtype::kQ4_0, nt::Tensor::randn({3, 64}, rng, 1.0f));
  nt::save_params(path.string(), {{"alpha", a}}, {{"wq8", wq8}, {"wq4", wq4}},
                  {{"rng", "0123456789"}, {"loop", std::string("\x07\x00\x01", 3)}});
  return read_file(path);
}

/// Reads every record and section of the file without matching any
/// parameter, so only container damage can throw.
void load_all(const std::filesystem::path& path) {
  nt::NamedQuants quants;
  nt::SessionSections sections;
  (void)nt::load_params_report(path.string(), {}, &quants, &sections);
}

class SerializeFaults : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

}  // namespace

TEST_F(SerializeFaults, RoundTripAndReport) {
  const auto path = tmp_path("netllm_roundtrip.bin");
  Rng rng(1);
  auto w1 = nt::Tensor::randn({3, 4}, rng, 1.0f, true);
  auto w2 = nt::Tensor::randn({5}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"w1", w1}, {"w2", w2}});
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));  // renamed away

  auto r1 = nt::Tensor::zeros({3, 4}, true);
  auto r2 = nt::Tensor::zeros({5}, true);
  const auto report = nt::load_params_report(path.string(), {{"w1", r1}, {"w2", r2}});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.loaded, 2u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(r1.at(i), w1.at(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r2.at(i), w2.at(i));
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, EveryBitFlipIsRejected) {
  const auto path = tmp_path("netllm_bitflip.bin");
  Rng rng(2);
  auto w = nt::Tensor::randn({4, 4}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"weights", w}});
  const std::string fp32_image = read_file(path);
  const std::string mixed = mixed_image(path);
  ASSERT_NO_THROW(load_all(path));

  // Flip one bit at a spread of offsets covering header, names, shapes,
  // payloads, sections and footer: the load must throw every time.
  for (const auto& image : {fp32_image, mixed}) {
    for (std::size_t pos = 0; pos < image.size(); pos += 7) {
      std::string corrupt = image;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
      write_file(path, corrupt);
      EXPECT_THROW(load_all(path), std::runtime_error)
          << "bit flip at offset " << pos << " of a " << image.size()
          << "-byte image was not detected";
    }
  }
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, PayloadFlipNamesTheBadTensor) {
  const auto path = tmp_path("netllm_named.bin");
  Rng rng(3);
  auto a = nt::Tensor::randn({2, 2}, rng, 1.0f, true);
  auto b = nt::Tensor::randn({8}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"alpha", a}, {"beta", b}});
  std::string image = read_file(path);
  // Flip a byte in the *last* tensor's float payload (just before the
  // 4-byte section count and the 4-byte footer), so the diagnostic must
  // name "beta".
  const std::size_t pos = image.size() - 2 * sizeof(std::uint32_t) - sizeof(float);
  image[pos] = static_cast<char>(image[pos] ^ 0x40);
  // Recompute nothing: the file CRC now also mismatches, but the per-tensor
  // check must still attribute the damage. Patch the footer so only the
  // tensor CRC catches it.
  {
    const std::size_t body = image.size() - 4;
    const auto crc = netllm::core::crc32(image.data(), body);
    std::memcpy(image.data() + body, &crc, sizeof(crc));
  }
  write_file(path, image);
  auto ra = nt::Tensor::zeros({2, 2}, true);
  auto rb = nt::Tensor::zeros({8}, true);
  try {
    nt::load_params(path.string(), {{"alpha", ra}, {"beta", rb}});
    FAIL() << "corrupt payload not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, TruncationMidTensorRejected) {
  const auto path = tmp_path("netllm_v2_trunc.bin");
  Rng rng(4);
  auto w = nt::Tensor::randn({16}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"w", w}});
  const std::string image = read_file(path);
  write_file(path, image.substr(0, image.size() / 2));
  auto r = nt::Tensor::zeros({16}, true);
  EXPECT_THROW(nt::load_params(path.string(), {{"w", r}}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, BadMagicRejected) {
  const auto path = tmp_path("netllm_v2_magic.bin");
  write_file(path, "XXXX not a container");
  auto r = nt::Tensor::zeros({1}, true);
  EXPECT_THROW(nt::load_params(path.string(), {{"w", r}}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, PreV4ContainersAreRejectedByVersion) {
  const auto path = tmp_path("netllm_legacy.bin");
  for (std::uint32_t version : {1u, 2u, 3u}) {
    write_file(path, legacy_container(version, {{"w", {1.5f, -2.0f, 0.25f}}}));
    auto r = nt::Tensor::zeros({3}, true);
    nt::NamedQuants quants;
    nt::SessionSections sections;
    try {
      (void)nt::load_params_report(path.string(), {{"w", r}}, &quants, &sections);
      FAIL() << "v" << version << " container accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported container version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    }
    EXPECT_EQ(r.at(0), 0.0f);  // nothing was copied
  }
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, MissingParametersAreNamed) {
  const auto path = tmp_path("netllm_v2_missing.bin");
  auto w = nt::Tensor::zeros({2}, true);
  nt::save_params(path.string(), {{"present", w}});
  auto a = nt::Tensor::zeros({2}, true);
  auto b = nt::Tensor::zeros({2}, true);
  try {
    nt::load_params(path.string(), {{"present", a}, {"head.fc.weight", b}});
    FAIL() << "missing parameter not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("head.fc.weight"), std::string::npos) << e.what();
  }
  const auto report =
      nt::load_params_report(path.string(), {{"present", a}, {"head.fc.weight", b}});
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0], "head.fc.weight");
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, DuplicateParamNamesThrowOnSaveAndLoad) {
  const auto path = tmp_path("netllm_v2_dup.bin");
  auto w1 = nt::Tensor::zeros({2}, true);
  auto w2 = nt::Tensor::zeros({2}, true);
  EXPECT_THROW(nt::save_params(path.string(), {{"w", w1}, {"w", w2}}), std::runtime_error);
  nt::save_params(path.string(), {{"w", w1}});
  EXPECT_THROW(nt::load_params(path.string(), {{"w", w1}, {"w", w2}}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, ReportTracksExtraAndMismatched) {
  const auto path = tmp_path("netllm_v2_report.bin");
  Rng rng(5);
  auto keep = nt::Tensor::randn({2, 3}, rng, 1.0f, true);
  auto drop = nt::Tensor::randn({4}, rng, 1.0f, true);
  auto wrong = nt::Tensor::randn({5}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"keep", keep}, {"drop", drop}, {"wrong", wrong}});
  auto rk = nt::Tensor::zeros({2, 3}, true);
  auto rw = nt::Tensor::zeros({6}, true);  // shape differs from the file's {5}
  const auto report = nt::load_params_report(path.string(), {{"keep", rk}, {"wrong", rw}});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.loaded, 1u);
  ASSERT_EQ(report.extra.size(), 1u);
  EXPECT_EQ(report.extra[0], "drop");
  ASSERT_EQ(report.mismatched.size(), 1u);
  EXPECT_EQ(report.mismatched[0].substr(0, 5), "wrong");
  EXPECT_TRUE(report.missing.empty());
  EXPECT_NE(report.summary().find("wrong"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, InterruptedSaveLeavesPreviousSnapshotIntact) {
  const auto path = tmp_path("netllm_v2_atomic.bin");
  auto old_w = nt::Tensor::full({4}, 1.0f, true);
  nt::save_params(path.string(), {{"w", old_w}});

  // Crash between the tmp write and the rename: the new image never lands.
  auto new_w = nt::Tensor::full({4}, 2.0f, true);
  fault::arm("serialize.rename", {.kind = fault::FaultKind::Throw});
  EXPECT_THROW(nt::save_params(path.string(), {{"w", new_w}}), fault::FaultInjected);
  fault::disarm_all();

  auto r = nt::Tensor::zeros({4}, true);
  nt::load_params(path.string(), {{"w", r}});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.at(i), 1.0f);  // previous values

  // Torn write (truncated tmp image): same guarantee.
  fault::arm("serialize.write", {.kind = fault::FaultKind::TruncateIo, .truncate_to = 10});
  EXPECT_THROW(nt::save_params(path.string(), {{"w", new_w}}), fault::FaultInjected);
  fault::disarm_all();
  nt::load_params(path.string(), {{"w", r}});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.at(i), 1.0f);

  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
}

TEST_F(SerializeFaults, FsyncFaultAlsoLeavesPreviousSnapshot) {
  const auto path = tmp_path("netllm_v2_fsync.bin");
  auto old_w = nt::Tensor::full({2}, 3.0f, true);
  nt::save_params(path.string(), {{"w", old_w}});
  fault::arm("serialize.fsync", {.kind = fault::FaultKind::Throw});
  auto new_w = nt::Tensor::full({2}, 4.0f, true);
  EXPECT_THROW(nt::save_params(path.string(), {{"w", new_w}}), fault::FaultInjected);
  fault::disarm_all();
  auto r = nt::Tensor::zeros({2}, true);
  nt::load_params(path.string(), {{"w", r}});
  EXPECT_EQ(r.at(0), 3.0f);
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
}

TEST_F(SerializeFaults, SaveRetrySucceedsAfterTransientFailures) {
  const auto path = tmp_path("netllm_v2_retry.bin");
  auto w = nt::Tensor::full({3}, 7.0f, true);
  // First two write attempts fail, the third succeeds.
  fault::arm("serialize.write", {.kind = fault::FaultKind::Throw, .times = 2});
  nt::save_params_retry(path.string(), {{"w", w}},
                        {.attempts = 4, .initial_backoff_ms = 1, .max_backoff_ms = 4});
  EXPECT_EQ(fault::fired("serialize.write"), 2);
  fault::disarm_all();
  auto r = nt::Tensor::zeros({3}, true);
  nt::load_params(path.string(), {{"w", r}});
  EXPECT_EQ(r.at(0), 7.0f);
  std::filesystem::remove(path);
}

TEST_F(SerializeFaults, SaveRetryGivesUpAndRethrows) {
  const auto path = tmp_path("netllm_v2_retry_fail.bin");
  auto w = nt::Tensor::full({3}, 7.0f, true);
  fault::arm("serialize.write", {.kind = fault::FaultKind::Throw, .times = -1});
  EXPECT_THROW(nt::save_params_retry(path.string(), {{"w", w}},
                                     {.attempts = 3, .initial_backoff_ms = 1, .max_backoff_ms = 2}),
               fault::FaultInjected);
  EXPECT_EQ(fault::fired("serialize.write"), 3);
  fault::disarm_all();
  std::filesystem::remove(path.string() + ".tmp");
}

// ---- session records (snapshots with sections) ----

TEST_F(SerializeFaults, SessionRoundTripCarriesSections) {
  const auto path = tmp_path("netllm_session_roundtrip.bin");
  Rng rng(4);
  auto w = nt::Tensor::randn({3, 3}, rng, 1.0f, true);
  const nt::SessionSections sections = {{"fingerprint", "task=vp;seed=7"},
                                        {"rng", std::string("\x01\x02\x00\x7f", 4)}};
  nt::save_params(path.string(), {{"w", w}}, {}, sections);

  auto w2 = nt::Tensor::zeros({3, 3}, true);
  nt::SessionSections loaded;
  const auto report = nt::load_params_report(path.string(), {{"w", w2}}, nullptr, &loaded);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has_session());
  ASSERT_EQ(report.sections.size(), 2u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "fingerprint");
  EXPECT_EQ(loaded[0].second, "task=vp;seed=7");
  EXPECT_EQ(loaded[1].first, "rng");
  EXPECT_EQ(loaded[1].second, std::string("\x01\x02\x00\x7f", 4));
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(w2.data()[i], w.data()[i]);
  EXPECT_NE(report.summary().find("session sections"), std::string::npos);
}

TEST_F(SerializeFaults, SectionBitFlipNamesTheSection) {
  const auto path = tmp_path("netllm_session_secflip.bin");
  auto w = nt::Tensor::from({1.0f}, {1}, true);
  const std::string payload = "SECTION-PAYLOAD-0123456789";
  nt::save_params(path.string(), {{"w", w}}, {}, {{"optimizer", payload}});

  std::string image = read_file(path);
  const auto off = image.find(payload);
  ASSERT_NE(off, std::string::npos);
  image[off + 3] ^= 0x10;  // flip a bit inside the section blob...
  // ...and re-stamp the file CRC so only the per-section CRC can catch it.
  const std::size_t body = image.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = netllm::core::crc32(image.data(), body);
  std::memcpy(image.data() + body, &crc, sizeof(crc));
  write_file(path, image);

  nt::SessionSections loaded;
  try {
    (void)nt::load_params_report(path.string(), {{"w", w}}, nullptr, &loaded);
    FAIL() << "expected checksum mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("optimizer"), std::string::npos) << e.what();
  }
}

TEST_F(SerializeFaults, TruncatedSectionRejected) {
  const auto path = tmp_path("netllm_session_trunc.bin");
  auto w = nt::Tensor::from({1.0f}, {1}, true);
  nt::save_params(path.string(), {{"w", w}}, {}, {{"rng", std::string(64, 'r')}});
  const std::string image = read_file(path);
  write_file(path, image.substr(0, image.size() - 20));  // cut into the section
  EXPECT_THROW((void)nt::load_params_report(path.string(), {{"w", w}}, nullptr),
               std::runtime_error);
}
