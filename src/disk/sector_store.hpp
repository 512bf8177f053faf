// Persistent sector contents — "the platter".
//
// Bytes written here survive a simulated crash (DiskDevice::crash_halt
// discards queued commands and driver state, never the store). Unwritten
// sectors read back as zeroes, like a freshly formatted drive.
//
// Every written sector holds one 512-byte slot of a disk::SectorPool, and
// nothing else holds payload: a sparse 1 KB write costs 1 KB of payload.
// Sectors are indexed in 64-sector chunks, each a written bitmap plus the
// slot of every written sector, found through an open-addressing map
// from chunk number to chunk, so the index grows with the chunks written
// and nothing is allocated before the first write. A multi-sector access
// probes the map once per chunk run and makes one copy per span of
// consecutive slots (the slots of a first write are carved in order, so
// a page written whole reads back in one copy); an unwritten sector reads
// as zeroes. A rewrite reuses its sector's slot, so written_sector_count()
// is the pool's live slot count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "disk/sector_pool.hpp"
#include "disk/types.hpp"
#include "sim/flat_map.hpp"

namespace trail::audit {
class Report;
}

namespace trail::disk {

class SectorStore {
 public:
  /// Sectors per chunk: one written-bitmap word and one index entry.
  static constexpr std::uint32_t kChunkSectors = 64;

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
    return chunk != nullptr && ((chunk->written >> (lba % kChunkSectors)) & 1) != 0;
  }

  /// Number of distinct sectors ever written (storage footprint metric).
  [[nodiscard]] std::size_t written_sector_count() const { return pool_.live(); }

  /// Bytes of sector payload the store holds: 512 per written sector
  /// (observability: wipe() must return this to zero).
  [[nodiscard]] std::size_t allocated_bytes() const { return pool_.allocated_bytes(); }

  /// Internal-consistency audit ("store.chunks"): chunk index bounds and
  /// agreement, written-bitmap popcounts vs the pool's live slots, one
  /// distinct slot per written sector. Cold path used by trail::audit
  /// quiesce checks; see DESIGN.md §9.
  void audit(audit::Report& report) const;

  /// Reset every sector back to zeroes (reformat); frees all payload.
  void wipe() {
    index_.clear();
    chunks_ = {};
    pool_.clear();
  }

 private:
  struct Chunk {
    std::uint64_t written = 0;  // bit s: sector s holds a slot
    std::array<SectorPool::Id, kChunkSectors> slot;  // meaningful where written
  };
  static_assert(kChunkSectors == 64, "one written-bitmap word per chunk");

  void check_range(Lba lba, std::uint32_t count) const;

  /// End of the span from sector `s` (before `end`) that one copy moves:
  /// unwritten sectors, or written ones whose slots follow each other.
  static std::uint32_t span_end(const Chunk& chunk, std::uint32_t s, std::uint32_t end);
  [[nodiscard]] const Chunk* find_chunk(std::uint64_t number) const {
    const std::uint32_t* at = index_.find(number);
    return at == nullptr ? nullptr : &chunks_[*at];
  }
  Chunk& chunk_for(std::uint64_t number);

  Lba total_sectors_;
  sim::FlatMap<std::uint32_t> index_;  // chunk number -> position in chunks_
  std::vector<Chunk> chunks_;
  SectorPool pool_;
};

}  // namespace trail::disk
