// 512-byte sector payloads carved from blocks their owner keeps.
//
// A sector held in host memory, on the simulated platter
// (disk::SectorStore) or in Trail's pinned buffer (core::BufferManager),
// costs its 512 bytes plus its owner's bookkeeping, and this is the one
// place that payload comes from. A slot is named by a dense 32-bit id.
// Blocks of kBlockSlots slots are allocated only when every carved slot
// is taken, and never zero-filled: a slot holds whatever its owner last
// wrote, so an owner writes a slot before reading it, and the pages of a
// block no slot has reached are never touched. A released slot goes on
// a free list threaded through its own payload, and the next acquire()
// takes the last one released, so an owner's payload footprint is the
// high water of its live slots. Only clear() and the destructor free
// blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "disk/types.hpp"

namespace trail::disk {

class SectorPool {
 public:
  using Id = std::uint32_t;
  /// Slots per block (64 KiB of payload).
  static constexpr Id kBlockSlots = 128;

  /// A slot for one sector; its bytes are unspecified until written.
  Id acquire() {
    ++live_;
    if (free_ != kNone) {
      const Id id = free_;
      std::memcpy(&free_, data(id), sizeof free_);
      return id;
    }
    if (carved_ == blocks_.size() * kBlockSlots)
      blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          static_cast<std::size_t>(kBlockSlots) * kSectorSize));
    return carved_++;
  }

  /// Return a slot; the next acquire() reuses it.
  void release(Id id) {
    std::memcpy(data(id), &free_, sizeof free_);
    free_ = id;
    --live_;
  }

  [[nodiscard]] std::byte* data(Id id) {
    return blocks_[id / kBlockSlots].get() + static_cast<std::size_t>(id % kBlockSlots) * kSectorSize;
  }
  [[nodiscard]] const std::byte* data(Id id) const {
    return blocks_[id / kBlockSlots].get() + static_cast<std::size_t>(id % kBlockSlots) * kSectorSize;
  }

  /// True when slot `b` directly follows slot `a` in one block, so a run
  /// of such slots is one contiguous span of payload.
  [[nodiscard]] static bool follows(Id a, Id b) { return b == a + 1 && b % kBlockSlots != 0; }

  /// Copy `sectors` sectors of payload. Out of line so that the length
  /// stays unknown to the compiler: a memcpy of a known 512 bytes is
  /// inlined on x86-64 as `rep movsq`, which made BM_BufferManagerCycle/8
  /// run 1.8x slower than through the library's memcpy.
  static void copy(std::byte* dst, const std::byte* src, std::uint32_t sectors);

  /// Slots handed out and not released.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Slots ever handed out: ids run from 0 to carved() - 1.
  [[nodiscard]] Id carved() const { return carved_; }
  /// Payload bytes of the carved slots, live or free.
  [[nodiscard]] std::size_t allocated_bytes() const {
    return static_cast<std::size_t>(carved_) * kSectorSize;
  }

  /// Free every block; every id becomes invalid.
  void clear() {
    blocks_.clear();
    blocks_.shrink_to_fit();
    carved_ = 0;
    free_ = kNone;
    live_ = 0;
  }

 private:
  static constexpr Id kNone = ~Id{0};

  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  Id carved_ = 0;
  Id free_ = kNone;  // last released slot; each free slot's first bytes name the next
  std::size_t live_ = 0;
};

}  // namespace trail::disk
