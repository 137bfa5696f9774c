// Named-parameter snapshots: save/load a model's weights to a simple binary
// container. Used by the `Adapt` API to return LLM snapshots (Fig. 9), by
// the benches to reuse trained baselines across experiments, and by the
// durable-session layer (netllm/session.hpp) as the checkpoint format.
//
// Container layout, version 4 — the only one written or read
// (little-endian; DESIGN.md §6):
//   magic "NLLM" | u32 version=4 | u32 count |
//   repeat count times: u32 name_len | name bytes | u32 dtype |
//     dtype 0 (f32):  u32 rank | i64 dims[rank] | u32 tensor_crc | f32 data
//     dtype 1 (q8_0) / 2 (q4_0):
//       i64 rows | i64 cols | u32 block_size (must be 32)
//       | u64 nscales | u64 ncodes | u32 tensor_crc (scales then codes)
//       | f32 scales[nscales] | u8 codes[ncodes]
//   u32 section_count |
//   repeat: u32 name_len | name bytes | u32 blob_crc | u64 blob_len | blob |
//   footer: u32 file_crc — CRC-32 of every byte before the footer
//
// Sections are named opaque blobs (optimizer moments, RNG stream state, loop
// counters) so one atomic file captures everything a killed `adapt()` run
// needs to continue bitwise-identically; weight snapshots carry none.
//
// Every malformation raises std::runtime_error naming the damaged record:
// bad dtype, bad block size, bad block count, bad code bytes, corrupt shape,
// truncated tensor data, CRC mismatch. Sizes are bounded by the bytes left
// in the file before anything is multiplied or allocated. Any other version
// is rejected by number, and a quantized record is only read into a
// `quants_out` list, so a quantized snapshot can never be misread as fp32.
//
// Saves are atomic: the container is written to `path + ".tmp"`, fsync'd,
// then renamed over `path`, so an interrupted save leaves the previous
// snapshot intact.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tensor/quants.hpp"
#include "tensor/tensor.hpp"

namespace netllm::tensor {

using NamedParams = std::vector<std::pair<std::string, Tensor>>;

/// Named block-quantized tensors (quantized backbone weights).
using NamedQuants = std::vector<std::pair<std::string, quant::QTensor>>;

/// Named opaque byte blobs carried alongside the tensors (e.g. a session
/// checkpoint's "optimizer", "rng", "loop").
using SessionSections = std::vector<std::pair<std::string, std::string>>;

/// Atomically writes fp32 `params`, block-quantized `quants` and `sections`
/// to `path`. Throws std::runtime_error on I/O failure or duplicate names
/// (names must be unique across `params` and `quants`).
/// Fault-injection sites: "serialize.write", "serialize.fsync",
/// "serialize.rename".
void save_params(const std::string& path, const NamedParams& params,
                 const NamedQuants& quants = {}, const SessionSections& sections = {});

struct SaveRetryOptions {
  int attempts = 4;             // total tries, including the first
  int initial_backoff_ms = 5;   // doubles per retry ...
  int max_backoff_ms = 100;     // ... capped here
};

/// `save_params` with capped exponential backoff on I/O failure — the
/// adaptation loop uses this so a transiently failing disk does not lose a
/// finished snapshot. Rethrows the last error once attempts are exhausted.
void save_params_retry(const std::string& path, const NamedParams& params,
                       const SaveRetryOptions& opts = {});

/// Outcome of matching a container's fp32 tensors against `params` by name.
/// Container-level corruption always throws; name/shape bookkeeping lands
/// here so callers can decide how strict to be.
struct LoadReport {
  std::size_t loaded = 0;             // tensors copied into `params`
  std::vector<std::string> missing;     // wanted by `params`, absent from file
  std::vector<std::string> extra;       // in file, not wanted by `params`
  std::vector<std::string> mismatched;  // name matched but shapes differ
  std::vector<std::string> sections;    // section names present in the file

  /// Extra entries are tolerated (partial snapshots compose); missing or
  /// shape-mismatched parameters are not.
  bool ok() const { return missing.empty() && mismatched.empty(); }
  /// True when the file carried sections (a session checkpoint); weight
  /// snapshots report false.
  bool has_session() const { return !sections.empty(); }
  /// One-line human-readable digest for error messages and logs.
  std::string summary() const;
};

/// Verifies the container (magic, version, CRCs, bounds) and copies every
/// name-and-shape-matched fp32 tensor into `params`. Throws
/// std::runtime_error on corruption or duplicate names; records
/// missing/extra/mismatched names in the returned report instead of
/// throwing. Quantized records are appended to `quants_out` by name; when it
/// is null a quantized record is an error naming it. When `sections_out` is
/// non-null it receives the sections.
LoadReport load_params_report(const std::string& path, const NamedParams& params,
                              NamedQuants* quants_out = nullptr,
                              SessionSections* sections_out = nullptr);

/// Strict variant: additionally throws (naming the offenders) unless the
/// report is `ok()`. Loads values *into* the given tensors; quantized
/// records go to `quants_out` exactly as above.
void load_params(const std::string& path, const NamedParams& params,
                 NamedQuants* quants_out = nullptr);

}  // namespace netllm::tensor
