// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected). Used to validate
// log record headers and payload images during recovery scanning — a
// robustness extension over the paper, which relies on the signature
// bytes alone.
//
// The implementation is tiered for bulk throughput and selected once at
// startup (overridable with TRAIL_CRC_IMPL=table|sliced|hw):
//   * table  — the original byte-at-a-time table walk; the bitwise
//              reference all faster tiers must match byte-exactly.
//   * sliced — slice-by-8: eight 256-entry tables folding 8 bytes per
//              step, no special instructions required.
//   * hw     — carryless-multiply folding (x86 PCLMULQDQ) or the ARMv8
//              CRC32 instructions, which share this polynomial. Falls
//              back to `sliced` when the CPU lacks the feature.
// All tiers produce identical results for identical input; the property
// tests in test_log_format.cpp cross-check them against the reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace trail::core {

/// CRC of `data`, chained: crc32(a || b) == crc32(b, crc32(a)).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Incremental accumulator for checksumming a logical byte stream that is
/// not contiguous in memory (header fields around a zeroed CRC slot,
/// payload sectors streamed one at a time). Equivalent to crc32() over
/// the concatenation of every update() span.
class Crc32 {
 public:
  explicit Crc32(std::uint32_t seed = 0) : state_(seed ^ 0xFFFFFFFFu) {}
  void update(std::span<const std::byte> data);
  /// CRC of everything updated so far; the accumulator stays usable.
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_;
};

/// The dispatch tiers, ordered by expected throughput.
enum class CrcImpl : std::uint8_t { kTable, kSliced, kHw };

/// The tier actually in use (after CPU-feature detection and the
/// TRAIL_CRC_IMPL override). Forcing `hw` on a CPU without the feature
/// resolves to kSliced — callers observe the truth, not the request.
[[nodiscard]] CrcImpl crc32_impl();
[[nodiscard]] const char* crc32_impl_name();

namespace detail {
/// Run one specific tier, bypassing dispatch — the property tests
/// cross-check every tier against the bitwise reference and the benches
/// report per-tier throughput. kHw falls back to the sliced tier when
/// the CPU lacks the feature (same rule as dispatch).
[[nodiscard]] std::uint32_t crc32_with(CrcImpl impl, std::span<const std::byte> data,
                                       std::uint32_t seed = 0);
}  // namespace detail

}  // namespace trail::core
