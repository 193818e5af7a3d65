// Frame arithmetic of the SPSC byte ring (ring.hpp). Dependency-free so
// that declint's DL011 (src/lint, below rt in the library stack) applies
// the ring's exact acceptance rule without linking the runtime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace decos::rt::framing {

inline constexpr std::size_t kFrameAlign = 8;
inline constexpr std::size_t kMinCapacity = 4096;

/// Bytes a frame of `payload` bytes occupies in the ring (4-byte length
/// prefix + payload, rounded up to the frame alignment).
constexpr std::size_t framed_size(std::size_t payload) {
  return (sizeof(std::uint32_t) + payload + (kFrameAlign - 1)) & ~(kFrameAlign - 1);
}

/// Smallest valid capacity >= `bytes` (power of two, >= kMinCapacity;
/// saturates at the largest power of two a size_t holds).
constexpr std::size_t round_capacity(std::size_t bytes) {
  std::size_t cap = kMinCapacity;
  while (cap < bytes && cap <= SIZE_MAX / 2) cap <<= 1;
  return cap;
}

/// Largest single payload a ring of `capacity` data bytes accepts: a
/// quarter, so a frame always leaves room for a wrap marker and can
/// never deadlock the ring.
constexpr std::size_t max_payload(std::size_t capacity) { return capacity / 4; }

}  // namespace decos::rt::framing
