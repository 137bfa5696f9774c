// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the tensor
// snapshot container for per-record and whole-file integrity checks.
// Table-driven, byte-at-a-time — plenty fast for snapshot I/O.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netllm::core {

/// One-shot CRC over a buffer. Chain calls by passing the previous result
/// as `seed` to checksum discontiguous regions.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace netllm::core
