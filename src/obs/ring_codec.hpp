// Byte codec shared by the obs rings (EventTracer, FlightRecorder).
//
// Both rings store their entries as one growing byte stream: each entry
// is a mask byte naming which fields changed since its predecessor,
// followed by LEB128 varints (zigzag for signed deltas) for just those
// fields. Evicting the oldest entry decodes it and advances a head
// offset; compact() then reclaims the decoded prefix under one policy.
// Internal to src/obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trail::obs::ring {

inline void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t get_varint(const std::vector<std::uint8_t>& buf, std::size_t& off) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = buf[off++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Reclaim the decoded prefix [0, head_off) once it is both past a small
/// floor and at least half the buffer, so memory tracks the retained
/// entries and each byte is moved O(1) times over the ring's life.
/// Returns the bytes removed (0 when the prefix stays); offsets into the
/// stream shift down by that much.
inline std::size_t compact(std::vector<std::uint8_t>& buf, std::size_t& head_off) {
  constexpr std::size_t kMinReclaim = 4096;
  if (head_off < kMinReclaim || head_off * 2 < buf.size()) return 0;
  const std::size_t removed = head_off;
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(removed));
  head_off = 0;
  return removed;
}

}  // namespace trail::obs::ring
