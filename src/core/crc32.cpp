#include "core/crc32.hpp"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TRAIL_CRC32_X86_CLMUL 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define TRAIL_CRC32_ARM_CRC 1
#endif

namespace trail::core {

namespace {

// All updaters below operate on the RAW running remainder (the state
// already folded with the 0xFFFFFFFF pre/post conditioning), so tiers
// compose freely: hw handles the bulk, sliced/table finish the tail.

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

// ---- tier 0: byte-at-a-time table (the reference) --------------------------

constexpr std::array<std::uint32_t, 256> make_base_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_base_table();

std::uint32_t update_table(std::uint32_t state, const std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    state = kTable[(state ^ static_cast<std::uint8_t>(p[i])) & 0xFFu] ^ (state >> 8);
  return state;
}

// ---- tier 1: slice-by-8 ----------------------------------------------------
// Eight derived tables fold 8 input bytes per step: tables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so the eight
// lookups of one 64-bit word are independent loads that XOR together.

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_sliced_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = kTable;
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  return t;
}

constexpr auto kSliced = make_sliced_tables();

std::uint32_t update_sliced(std::uint32_t state, const std::byte* p, std::size_t n) {
  if constexpr (std::endian::native != std::endian::little)
    return update_table(state, p, n);  // the word trick below assumes LE
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= state;
    state = kSliced[7][w & 0xFF] ^ kSliced[6][(w >> 8) & 0xFF] ^ kSliced[5][(w >> 16) & 0xFF] ^
            kSliced[4][(w >> 24) & 0xFF] ^ kSliced[3][(w >> 32) & 0xFF] ^
            kSliced[2][(w >> 40) & 0xFF] ^ kSliced[1][(w >> 48) & 0xFF] ^
            kSliced[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  return update_table(state, p, n);
}

// ---- tier 2: hardware ------------------------------------------------------

#if defined(TRAIL_CRC32_X86_CLMUL)

// PCLMULQDQ folding for the reflected IEEE polynomial (the SSE4.2 crc32
// instruction uses Castagnoli and cannot be used here). Constants and
// structure follow Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ" as deployed in zlib: fold four 128-bit lanes by
// x^512, collapse to one lane by x^128, then Barrett-reduce to 32 bits.
alignas(16) constexpr std::uint64_t kFold512[2] = {0x0154442bd4, 0x01c6e41596};  // k1, k2
alignas(16) constexpr std::uint64_t kFold128[2] = {0x01751997d0, 0x00ccaa009e};  // k3, k4
alignas(16) constexpr std::uint64_t kFold64[2] = {0x0163cd6124, 0x0000000000};   // k5
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};  // P', mu

__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_clmul_1664(std::uint32_t state,
                                                                         const std::byte* p,
                                                                         std::size_t n) {
  // Precondition: n >= 64 and n % 16 == 0 (callers peel the tail).
  const auto* buf = reinterpret_cast<const __m128i*>(p);
  __m128i x1 = _mm_loadu_si128(buf + 0);
  __m128i x2 = _mm_loadu_si128(buf + 1);
  __m128i x3 = _mm_loadu_si128(buf + 2);
  __m128i x4 = _mm_loadu_si128(buf + 3);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  buf += 4;
  n -= 64;
  while (n >= 64) {
    const __m128i t1 = _mm_clmulepi64_si128(x1, k, 0x00);
    const __m128i t2 = _mm_clmulepi64_si128(x2, k, 0x00);
    const __m128i t3 = _mm_clmulepi64_si128(x3, k, 0x00);
    const __m128i t4 = _mm_clmulepi64_si128(x4, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1), _mm_loadu_si128(buf + 0));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2), _mm_loadu_si128(buf + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3), _mm_loadu_si128(buf + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4), _mm_loadu_si128(buf + 3));
    buf += 4;
    n -= 64;
  }
  // Collapse the four lanes into x1.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  for (const __m128i lane : {x2, x3, x4}) {
    const __m128i t = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t), lane);
  }
  while (n >= 16) {
    const __m128i t = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t), _mm_loadu_si128(buf));
    ++buf;
    n -= 16;
  }
  // 128 -> 64 bits, then Barrett reduction to the 32-bit remainder.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  t = _mm_and_si128(x1, mask32);
  t = _mm_clmulepi64_si128(t, k, 0x10);
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

std::uint32_t update_hw(std::uint32_t state, const std::byte* p, std::size_t n) {
  if (n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    state = update_clmul_1664(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return update_sliced(state, p, n);
}

bool hw_available() {
  return __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("sse4.1") != 0;
}

#elif defined(TRAIL_CRC32_ARM_CRC)

// ARMv8 CRC32 (not CRC32C) instructions implement exactly this
// polynomial on the raw state.
std::uint32_t update_hw(std::uint32_t state, const std::byte* p, std::size_t n) {
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    state = __crc32d(state, w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = __crc32b(state, static_cast<std::uint8_t>(*p));
    ++p;
    --n;
  }
  return state;
}

bool hw_available() { return true; }  // compiled only when the target has it

#else

std::uint32_t update_hw(std::uint32_t state, const std::byte* p, std::size_t n) {
  return update_sliced(state, p, n);
}
bool hw_available() { return false; }

#endif

// ---- dispatch --------------------------------------------------------------

using UpdateFn = std::uint32_t (*)(std::uint32_t, const std::byte*, std::size_t);

struct Dispatch {
  UpdateFn fn;
  CrcImpl impl;
  const char* name;
};

Dispatch resolve_dispatch() {
  const bool hw = hw_available();
  CrcImpl want = hw ? CrcImpl::kHw : CrcImpl::kSliced;
  // Runs once, under dispatch()'s magic-static guard. The race getenv
  // is unsafe against is a concurrent setenv, which nothing in the tree
  // (or its tests/benches) ever calls after startup.
  if (const char* env = std::getenv("TRAIL_CRC_IMPL");  // NOLINT(concurrency-mt-unsafe)
      env != nullptr) {
    if (std::strcmp(env, "table") == 0) want = CrcImpl::kTable;
    if (std::strcmp(env, "sliced") == 0) want = CrcImpl::kSliced;
    if (std::strcmp(env, "hw") == 0) want = hw ? CrcImpl::kHw : CrcImpl::kSliced;
  }
  switch (want) {
    case CrcImpl::kTable:
      return {update_table, CrcImpl::kTable, "table"};
    case CrcImpl::kSliced:
      return {update_sliced, CrcImpl::kSliced, "sliced"};
    case CrcImpl::kHw:
      return {update_hw, CrcImpl::kHw, "hw"};
  }
  return {update_sliced, CrcImpl::kSliced, "sliced"};
}

const Dispatch& dispatch() {
  static const Dispatch d = resolve_dispatch();
  return d;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  const std::uint32_t state = dispatch().fn(seed ^ 0xFFFFFFFFu, data.data(), data.size());
  return state ^ 0xFFFFFFFFu;
}

void Crc32::update(std::span<const std::byte> data) {
  state_ = dispatch().fn(state_, data.data(), data.size());
}

CrcImpl crc32_impl() { return dispatch().impl; }

const char* crc32_impl_name() { return dispatch().name; }

std::uint32_t detail::crc32_with(CrcImpl impl, std::span<const std::byte> data,
                                 std::uint32_t seed) {
  UpdateFn fn = update_sliced;
  if (impl == CrcImpl::kTable) fn = update_table;
  if (impl == CrcImpl::kHw && hw_available()) fn = update_hw;
  return fn(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace trail::core
