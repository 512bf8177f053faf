#include "disk/sector_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::disk {

void SectorStore::check_range(Lba lba, std::uint32_t count) const {
  if (lba >= total_sectors_ || count > total_sectors_ - lba)
    throw std::out_of_range("SectorStore: access beyond end of disk");
}

SectorStore::Chunk& SectorStore::chunk_for(std::uint64_t number) {
  if (const std::uint32_t* at = index_.find(number)) return chunks_[*at];
  index_[number] = static_cast<std::uint32_t>(chunks_.size());
  return chunks_.emplace_back();
}

std::uint32_t SectorStore::span_end(const Chunk& chunk, std::uint32_t s, std::uint32_t end) {
  const bool written = ((chunk.written >> s) & 1) != 0;
  std::uint32_t e = s + 1;
  while (e < end && (((chunk.written >> e) & 1) != 0) == written &&
         (!written || SectorPool::follows(chunk.slot[e - 1], chunk.slot[e])))
    ++e;
  return e;
}

void SectorStore::read(Lba lba, std::uint32_t count, std::span<std::byte> out) const {
  check_range(lba, count);
  if (out.size() < static_cast<std::size_t>(count) * kSectorSize)
    throw std::invalid_argument("SectorStore::read: output buffer too small");
  std::byte* dst = out.data();
  while (count > 0) {
    // One index probe per chunk run, then one copy per span.
    const auto off = static_cast<std::uint32_t>(lba % kChunkSectors);
    const std::uint32_t end = off + std::min(count, kChunkSectors - off);
    const Chunk* chunk = find_chunk(lba / kChunkSectors);
    lba += end - off;
    count -= end - off;
    if (chunk == nullptr) {
      std::memset(dst, 0, static_cast<std::size_t>(end - off) * kSectorSize);
      dst += static_cast<std::size_t>(end - off) * kSectorSize;
      continue;
    }
    for (std::uint32_t s = off, e = 0; s < end; s = e) {
      e = span_end(*chunk, s, end);
      const std::size_t bytes = static_cast<std::size_t>(e - s) * kSectorSize;
      if (((chunk->written >> s) & 1) != 0)
        SectorPool::copy(dst, pool_.data(chunk->slot[s]), e - s);
      else
        std::memset(dst, 0, bytes);
      dst += bytes;
    }
  }
}

void SectorStore::write(Lba lba, std::uint32_t count, std::span<const std::byte> data) {
  check_range(lba, count);
  if (data.size() < static_cast<std::size_t>(count) * kSectorSize)
    throw std::invalid_argument("SectorStore::write: input buffer too small");
  const std::byte* src = data.data();
  while (count > 0) {
    const auto off = static_cast<std::uint32_t>(lba % kChunkSectors);
    const std::uint32_t end = off + std::min(count, kChunkSectors - off);
    Chunk& chunk = chunk_for(lba / kChunkSectors);
    lba += end - off;
    count -= end - off;
    // Slots for the sectors written the first time: the store never
    // releases one, so a run of them is carved consecutively.
    for (std::uint32_t s = off; s < end; ++s) {
      if (((chunk.written >> s) & 1) != 0) continue;
      chunk.slot[s] = pool_.acquire();
      chunk.written |= std::uint64_t{1} << s;
    }
    for (std::uint32_t s = off, e = 0; s < end; s = e) {
      e = span_end(chunk, s, end);
      SectorPool::copy(pool_.data(chunk.slot[s]), src, e - s);
      src += static_cast<std::size_t>(e - s) * kSectorSize;
    }
  }
}

void SectorStore::audit(audit::Report& report) const {
  audit::Check& check = report.check("store.chunks");
  const std::uint64_t chunk_count = (total_sectors_ + kChunkSectors - 1) / kChunkSectors;
  check.require(index_.size() == chunks_.size(), "chunk index and chunks disagree in size");
  std::vector<bool> referenced(pool_.carved(), false);
  std::size_t written = 0;
  index_.for_each([&](std::uint64_t number, std::uint32_t at) {
    const Lba first = number * kChunkSectors;
    if (!check.require(at < chunks_.size(), "chunk index entry beyond the chunks", first)) return;
    check.require(number < chunk_count, "chunk index beyond end of disk", first);
    const Chunk& chunk = chunks_[at];
    written += static_cast<std::size_t>(std::popcount(chunk.written));
    for (std::uint32_t s = 0; s < kChunkSectors; ++s) {
      if (((chunk.written >> s) & 1) == 0) continue;
      const SectorPool::Id id = chunk.slot[s];
      if (!check.require(id < pool_.carved() && !referenced[id],
                         "written sector without a slot of its own", first + s))
        continue;
      referenced[id] = true;
    }
    // The final chunk of a disk whose size is not a multiple of 64 must
    // not mark out-of-range sectors written.
    if (number == chunk_count - 1 && total_sectors_ % kChunkSectors != 0) {
      const auto valid = static_cast<std::uint32_t>(total_sectors_ % kChunkSectors);
      check.require((chunk.written >> valid) == 0,
                    "written bits beyond end of disk in the final chunk", first + valid);
    }
  });
  check.require(written == pool_.live(), "written-sector count disagrees with the chunk bitmaps");
  // The store never releases a slot: a rewrite reuses its sector's.
  check.require(pool_.live() == pool_.carved(), "a carved slot belongs to no written sector");
}

}  // namespace trail::disk
