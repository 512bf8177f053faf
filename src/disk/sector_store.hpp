// Persistent sector contents — "the platter".
//
// Bytes written here survive a simulated crash (DiskDevice::crash_halt
// discards queued commands and driver state, never the store). Unwritten
// sectors read back as zeroes, like a freshly formatted drive.
//
// Storage is organised as 256-sector extents (chunks), each backed by 32
// lazily-allocated 4 KB pages: a multi-sector access touches one hash
// probe per chunk run and one bulk memcpy per page piece, and a sparse
// write allocates (and zero-fills) only the pages it touches, not the
// whole 128 KB extent. A missing page reads as zeroes. A per-chunk bitmap
// keeps is_written()/written_sector_count() exact at sector granularity,
// and a one-entry chunk cache makes the sequential single-sector probes of
// the recovery scanner near-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "disk/types.hpp"

namespace trail::audit {
class Report;
}

namespace trail::disk {

class SectorStore {
 public:
  /// Sectors per extent (128 KB of payload): one hash entry.
  static constexpr std::uint32_t kChunkSectors = 256;
  /// Sectors per lazily-allocated page of an extent (4 KB of payload).
  static constexpr std::uint32_t kPageSectors = 8;

  explicit SectorStore(Lba total_sectors) : total_sectors_(total_sectors) {}

  [[nodiscard]] Lba total_sectors() const { return total_sectors_; }

  /// Copy `count` sectors starting at `lba` into `out` (size >= count*512).
  void read(Lba lba, std::uint32_t count, std::span<std::byte> out) const;

  /// Copy `count` sectors from `data` (size >= count*512) onto the platter.
  void write(Lba lba, std::uint32_t count, std::span<const std::byte> data);

  /// True if the sector has ever been written.
  [[nodiscard]] bool is_written(Lba lba) const {
    if (lba >= total_sectors_) return false;
    const Chunk* chunk = find_chunk(lba / kChunkSectors);
    if (chunk == nullptr) return false;
    const std::uint32_t off = static_cast<std::uint32_t>(lba % kChunkSectors);
    return (chunk->written[off / 64] >> (off % 64)) & 1;
  }

  /// Number of distinct sectors ever written (storage footprint metric).
  [[nodiscard]] std::size_t written_sector_count() const { return written_count_; }

  /// Bytes of backing memory currently allocated for page payloads
  /// (observability: wipe() must return this to zero).
  [[nodiscard]] std::size_t allocated_bytes() const { return pages_ * sizeof(Page); }

  /// Internal-consistency audit ("store.chunks"): chunk index bounds,
  /// written-count vs bitmap popcounts, written sectors backed by pages,
  /// page count, chunk-cache coherence. Cold path used by trail::audit
  /// quiesce checks; see DESIGN.md §9.
  void audit(audit::Report& report) const;

  /// Reset every sector back to zeroes (reformat); reclaims all pages.
  void wipe() {
    chunks_.clear();
    pages_ = 0;
    written_count_ = 0;
    cached_index_ = kNoChunk;
    cached_chunk_ = nullptr;
  }

 private:
  static constexpr std::uint32_t kChunkPages = kChunkSectors / kPageSectors;
  using Page = std::array<std::byte, static_cast<std::size_t>(kPageSectors) * kSectorSize>;

  struct Chunk {
    // Null until first written; a fresh page is value-initialised, so
    // unwritten sectors inside a written page read back as zeroes.
    std::array<std::unique_ptr<Page>, kChunkPages> pages;
    std::array<std::uint64_t, kChunkSectors / 64> written{};
  };

  static constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};

  void check_range(Lba lba, std::uint32_t count) const;

  /// Cached lookup. unordered_map nodes are pointer-stable, so the cache
  /// survives inserts; wipe() is the only invalidation point.
  const Chunk* find_chunk(std::uint64_t index) const {
    if (index == cached_index_) return cached_chunk_;
    auto it = chunks_.find(index);
    if (it == chunks_.end()) return nullptr;
    cached_index_ = index;
    cached_chunk_ = &it->second;
    return cached_chunk_;
  }

  Chunk& get_or_create_chunk(std::uint64_t index) {
    if (index == cached_index_) return *const_cast<Chunk*>(cached_chunk_);
    Chunk& chunk = chunks_[index];
    cached_index_ = index;
    cached_chunk_ = &chunk;
    return chunk;
  }

  Lba total_sectors_;
  std::unordered_map<std::uint64_t, Chunk> chunks_;
  std::size_t pages_ = 0;
  std::size_t written_count_ = 0;
  mutable std::uint64_t cached_index_ = kNoChunk;
  mutable const Chunk* cached_chunk_ = nullptr;
};

}  // namespace trail::disk
