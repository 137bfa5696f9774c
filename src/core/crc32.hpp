// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the tensor
// snapshot container for per-record and whole-file integrity checks.
// Slicing-by-8: eight 256-entry tables fold eight input bytes per step, so a
// snapshot load (which checksums every byte twice: per record and for the
// whole file) runs at memory speed rather than one table lookup per byte.
// The values are those of the bytewise definition for every length,
// alignment and seed; `test_core` pins that.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netllm::core {

/// One-shot CRC over a buffer. Chain calls by passing the previous result
/// as `seed` to checksum discontiguous regions.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace netllm::core
