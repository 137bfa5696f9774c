#include "tensor/serialize.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/crc32.hpp"
#include "core/fault.hpp"

namespace netllm::tensor {

namespace {

constexpr char kMagic[4] = {'N', 'L', 'L', 'M'};
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kMaxRank = 16;  // sanity bound while parsing

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void append_name(std::string& buf, const std::string& name) {
  append_pod(buf, static_cast<std::uint32_t>(name.size()));
  buf.append(name);
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("load_params: " + what + " in " + path);
}

/// Bounds-checked cursor over an in-memory container image. Running past the
/// end anywhere means the file was truncated or a length field was corrupted.
class Reader {
 public:
  Reader(const char* data, std::size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  template <typename T>
  T pod() {
    T v{};
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  std::string str(std::size_t len) { return std::string(take(len), len); }

  /// Points at the next `len` bytes of the image and steps past them.
  const char* take(std::size_t len) {
    if (len > remaining()) fail(path_, "truncated or corrupt container");
    const char* p = data_ + pos_;
    pos_ += len;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

void reject_duplicates(const NamedParams& params, const NamedQuants& quants, const char* who) {
  std::unordered_set<std::string> seen;
  const auto insert = [&](const std::string& name) {
    if (!seen.insert(name).second) {
      throw std::runtime_error(std::string(who) + ": duplicate parameter name '" + name + "'");
    }
  };
  for (const auto& [name, t] : params) insert(name);
  for (const auto& [name, q] : quants) insert(name);
}

std::string join_names(const std::vector<std::string>& names, std::size_t cap = 8) {
  std::string out;
  for (std::size_t i = 0; i < names.size() && i < cap; ++i) {
    if (i) out += ", ";
    out += names[i];
  }
  if (names.size() > cap) out += ", ... (" + std::to_string(names.size() - cap) + " more)";
  return out;
}

/// POSIX fd with RAII close, so error paths cannot leak descriptors.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

std::string LoadReport::summary() const {
  std::string s = "loaded " + std::to_string(loaded);
  if (!missing.empty()) s += "; missing: " + join_names(missing);
  if (!mismatched.empty()) s += "; shape mismatch: " + join_names(mismatched);
  if (!extra.empty()) s += "; extra (ignored): " + join_names(extra);
  if (!sections.empty()) s += "; session sections: " + join_names(sections);
  return s;
}

namespace {

/// Serialise the whole container in memory first: the CRC footer needs the
/// final image, and a single write keeps the atomic-rename story simple.
/// Quantized records store the block payload (scales then codes) under one
/// CRC; the section block is always present (possibly empty).
std::string encode_image(const NamedParams& params, const NamedQuants& quants,
                         const SessionSections& sections) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  append_pod(buf, kVersion);
  append_pod(buf, static_cast<std::uint32_t>(params.size() + quants.size()));
  for (const auto& [name, t] : params) {
    append_name(buf, name);
    append_pod(buf, static_cast<std::uint32_t>(quant::Dtype::kF32));
    append_pod(buf, static_cast<std::uint32_t>(t.rank()));
    for (auto d : t.shape()) append_pod(buf, d);
    const auto payload_bytes = static_cast<std::size_t>(t.numel()) * sizeof(float);
    append_pod(buf, core::crc32(t.data().data(), payload_bytes));
    buf.append(reinterpret_cast<const char*>(t.data().data()), payload_bytes);
  }
  for (const auto& [name, q] : quants) {
    append_name(buf, name);
    append_pod(buf, static_cast<std::uint32_t>(q.dtype));
    append_pod(buf, q.rows);
    append_pod(buf, q.cols);
    append_pod(buf, static_cast<std::uint32_t>(quant::kBlock));
    append_pod(buf, static_cast<std::uint64_t>(q.scales.size()));
    append_pod(buf, static_cast<std::uint64_t>(q.codes.size()));
    const auto scale_bytes = q.scales.size() * sizeof(float);
    const auto crc = core::crc32(q.codes.data(), q.codes.size(),
                                 core::crc32(q.scales.data(), scale_bytes));
    append_pod(buf, crc);
    buf.append(reinterpret_cast<const char*>(q.scales.data()), scale_bytes);
    buf.append(reinterpret_cast<const char*>(q.codes.data()), q.codes.size());
  }
  append_pod(buf, static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, blob] : sections) {
    append_name(buf, name);
    append_pod(buf, core::crc32(blob.data(), blob.size()));
    append_pod(buf, static_cast<std::uint64_t>(blob.size()));
    buf.append(blob);
  }
  append_pod(buf, core::crc32(buf.data(), buf.size()));
  return buf;
}

void write_image_atomic(const std::string& path, const std::string& buf) {
  // Atomic write: tmp file, fsync, rename. A crash (or injected fault) at
  // any point leaves the previous snapshot at `path` untouched; the torn
  // tmp file is unlinked so failed saves do not accumulate.
  const std::string tmp = path + ".tmp";
  try {
    const std::size_t to_write = core::fault::io_bytes("serialize.write", buf.size());
    {
      Fd f;
      f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (f.fd < 0) throw std::runtime_error("save_params: cannot open " + tmp);
      std::size_t written = 0;
      while (written < to_write) {
        const auto n = ::write(f.fd, buf.data() + written, to_write - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error("save_params: write failed for " + tmp);
        }
        written += static_cast<std::size_t>(n);
      }
      if (to_write < buf.size()) {
        // An armed TruncateIo fault cut the request short: the tmp file now
        // holds a torn image, exactly like a crash mid-write.
        throw core::fault::FaultInjected("save_params: interrupted write for " + tmp);
      }
      FAULT_POINT("serialize.fsync");
      if (::fsync(f.fd) != 0) throw std::runtime_error("save_params: fsync failed for " + tmp);
    }
    FAULT_POINT("serialize.rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("save_params: rename failed for " + path);
    }
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
}

/// The whole file in one sized read.
std::string read_image(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY);
  struct stat st {};
  if (f.fd < 0 || ::fstat(f.fd, &st) != 0) {
    throw std::runtime_error("load_params: cannot open " + path);
  }
  std::string image(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < image.size()) {
    const auto n = ::read(f.fd, image.data() + got, image.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("load_params: read failed for " + path);
    got += static_cast<std::size_t>(n);
  }
  return image;
}

}  // namespace

void save_params(const std::string& path, const NamedParams& params, const NamedQuants& quants,
                 const SessionSections& sections) {
  reject_duplicates(params, quants, "save_params");
  write_image_atomic(path, encode_image(params, quants, sections));
}

void save_params_retry(const std::string& path, const NamedParams& params,
                       const SaveRetryOptions& opts) {
  int backoff_ms = opts.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    try {
      save_params(path, params);
      return;
    } catch (const std::exception&) {
      if (attempt >= opts.attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, opts.max_backoff_ms);
    }
  }
}

LoadReport load_params_report(const std::string& path, const NamedParams& params,
                              NamedQuants* quants_out, SessionSections* sections_out) {
  reject_duplicates(params, {}, "load_params");

  const std::string image = read_image(path);
  Reader r(image.data(), image.size(), path);
  if (std::memcmp(r.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    fail(path, "bad magic");
  }
  const auto version = r.pod<std::uint32_t>();
  if (version != kVersion) {
    fail(path, "unsupported container version " + std::to_string(version) +
                   " (only v" + std::to_string(kVersion) + " is read)");
  }
  // Whole-file integrity first: catches corruption in headers and names,
  // where per-record CRCs cannot reach. The reader has consumed 8 bytes, so
  // the image holds at least the 4-byte footer.
  const std::size_t body = image.size() - sizeof(std::uint32_t);
  std::uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, image.data() + body, sizeof(stored_file_crc));
  if (core::crc32(image.data(), body) != stored_file_crc) {
    fail(path, "file checksum mismatch (corrupt or torn snapshot)");
  }

  std::unordered_map<std::string, Tensor> by_name;
  for (const auto& [name, t] : params) by_name.emplace(name, t);

  LoadReport report;
  if (quants_out) quants_out->clear();
  if (sections_out) sections_out->clear();
  std::unordered_set<std::string> seen_in_file, found;  // found: matched or mismatched
  const auto count = r.pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str(r.pod<std::uint32_t>());
    if (!seen_in_file.insert(name).second) fail(path, "duplicate tensor '" + name + "'");
    const auto dtype = r.pod<std::uint32_t>();
    if (dtype == static_cast<std::uint32_t>(quant::Dtype::kF32)) {
      const auto rank = r.pod<std::uint32_t>();
      if (rank > kMaxRank) fail(path, "corrupt rank for '" + name + "'");
      // Bound the element count by the bytes left before multiplying, so a
      // crafted shape can neither overflow nor allocate past the file.
      const std::uint64_t max_numel = r.remaining() / sizeof(float);
      std::uint64_t numel = 1;
      Shape shape(rank);
      for (auto& d : shape) {
        d = r.pod<std::int64_t>();
        if (d < 0) fail(path, "corrupt shape for '" + name + "'");
        const auto n = static_cast<std::uint64_t>(d);
        if (n != 0 && numel > max_numel / n) {
          fail(path, "truncated tensor data for '" + name + "'");
        }
        numel *= n;
      }
      const auto stored_crc = r.pod<std::uint32_t>();
      const auto payload_bytes = static_cast<std::size_t>(numel) * sizeof(float);
      if (payload_bytes > r.remaining()) {
        fail(path, "truncated tensor data for '" + name + "'");
      }
      const char* payload = r.take(payload_bytes);
      if (core::crc32(payload, payload_bytes) != stored_crc) {
        fail(path, "checksum mismatch for tensor '" + name + "'");
      }
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        report.extra.push_back(name);
        continue;
      }
      found.insert(name);
      if (it->second.shape() != shape) {
        report.mismatched.push_back(name + " (file " + shape_str(shape) + ", param " +
                                    shape_str(it->second.shape()) + ")");
        continue;
      }
      auto* dst = reinterpret_cast<char*>(it->second.mutable_data().data());
      std::copy_n(payload, payload_bytes, dst);
      ++report.loaded;
      continue;
    }
    if (dtype != static_cast<std::uint32_t>(quant::Dtype::kQ8_0) &&
        dtype != static_cast<std::uint32_t>(quant::Dtype::kQ4_0)) {
      fail(path, "bad dtype " + std::to_string(dtype) + " for '" + name + "'");
    }
    if (!quants_out) {
      fail(path, "quantized record '" + name + "' needs a quants_out list to be read");
    }
    quant::QTensor q;
    q.dtype = static_cast<quant::Dtype>(dtype);
    q.rows = r.pod<std::int64_t>();
    q.cols = r.pod<std::int64_t>();
    if (q.rows < 0 || q.cols <= 0) fail(path, "corrupt shape for '" + name + "'");
    // Every block stores at least its fp32 scale: bound the block count by
    // the bytes left before multiplying anything.
    const std::uint64_t max_blocks = r.remaining() / sizeof(float);
    const auto rows = static_cast<std::uint64_t>(q.rows);
    if (static_cast<std::uint64_t>(q.cols) / quant::kBlock > max_blocks ||
        (rows != 0 &&
         static_cast<std::uint64_t>(quant::blocks_per_row(q.cols)) > max_blocks / rows)) {
      fail(path, "truncated tensor data for '" + name + "'");
    }
    const auto block_size = r.pod<std::uint32_t>();
    if (block_size != static_cast<std::uint32_t>(quant::kBlock)) {
      fail(path, "bad block size " + std::to_string(block_size) + " for '" + name + "'");
    }
    const auto nscales = r.pod<std::uint64_t>();
    const auto ncodes = r.pod<std::uint64_t>();
    const auto want_scales = static_cast<std::uint64_t>(q.n_blocks());
    if (nscales != want_scales) {
      fail(path, "bad block count for '" + name + "' (have " + std::to_string(nscales) +
                     ", want " + std::to_string(want_scales) + ")");
    }
    const auto want_codes =
        want_scales * static_cast<std::uint64_t>(quant::block_code_bytes(q.dtype));
    if (ncodes != want_codes) {
      fail(path, "bad code bytes for '" + name + "' (have " + std::to_string(ncodes) +
                     ", want " + std::to_string(want_codes) + ")");
    }
    const auto stored_crc = r.pod<std::uint32_t>();
    const auto scale_bytes = static_cast<std::size_t>(nscales) * sizeof(float);
    if (scale_bytes + ncodes > r.remaining()) {
      fail(path, "truncated tensor data for '" + name + "'");
    }
    const char* scales = r.take(scale_bytes);
    const char* codes = r.take(static_cast<std::size_t>(ncodes));
    if (core::crc32(codes, ncodes, core::crc32(scales, scale_bytes)) != stored_crc) {
      fail(path, "checksum mismatch for tensor '" + name + "'");
    }
    q.scales.resize(static_cast<std::size_t>(nscales));
    std::copy_n(scales, scale_bytes, reinterpret_cast<char*>(q.scales.data()));
    q.codes.assign(codes, codes + ncodes);
    quants_out->emplace_back(std::move(name), std::move(q));
  }
  // Sections: named opaque blobs, each with its own CRC so a damaged section
  // is attributed by name like a damaged tensor.
  std::unordered_set<std::string> seen_sections;
  const auto section_count = r.pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::string name = r.str(r.pod<std::uint32_t>());
    if (!seen_sections.insert(name).second) {
      fail(path, "duplicate session section '" + name + "'");
    }
    const auto stored_crc = r.pod<std::uint32_t>();
    const auto blob_len = r.pod<std::uint64_t>();
    if (blob_len > r.remaining()) fail(path, "truncated session section '" + name + "'");
    std::string blob = r.str(static_cast<std::size_t>(blob_len));
    if (core::crc32(blob.data(), blob.size()) != stored_crc) {
      fail(path, "checksum mismatch for session section '" + name + "'");
    }
    report.sections.push_back(name);
    if (sections_out) sections_out->emplace_back(std::move(name), std::move(blob));
  }
  for (const auto& [name, t] : params) {
    if (!found.contains(name)) report.missing.push_back(name);
  }
  return report;
}

void load_params(const std::string& path, const NamedParams& params, NamedQuants* quants_out) {
  const auto report = load_params_report(path, params, quants_out);
  if (!report.missing.empty()) {
    fail(path, "missing parameters: " + join_names(report.missing));
  }
  if (!report.mismatched.empty()) {
    fail(path, "shape mismatch for " + join_names(report.mismatched));
  }
}

}  // namespace netllm::tensor
