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

void SectorStore::read(Lba lba, std::uint32_t count, std::span<std::byte> out) const {
  check_range(lba, count);
  if (out.size() < static_cast<std::size_t>(count) * kSectorSize)
    throw std::invalid_argument("SectorStore::read: output buffer too small");
  std::byte* dst = out.data();
  while (count > 0) {
    // One hash probe per chunk run, then one copy per page piece.
    auto off = static_cast<std::uint32_t>(lba % kChunkSectors);
    const std::uint32_t end = off + std::min(count, kChunkSectors - off);
    const Chunk* chunk = find_chunk(lba / kChunkSectors);
    lba += end - off;
    count -= end - off;
    for (std::uint32_t run = 0; off < end; off += run) {
      run = std::min(end, (off / kPageSectors + 1) * kPageSectors) - off;
      const Page* page = chunk == nullptr ? nullptr : chunk->pages[off / kPageSectors].get();
      const std::size_t bytes = static_cast<std::size_t>(run) * kSectorSize;
      if (page == nullptr)
        std::memset(dst, 0, bytes);
      else
        std::memcpy(dst, page->data() + static_cast<std::size_t>(off % kPageSectors) * kSectorSize,
                    bytes);
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
    auto off = static_cast<std::uint32_t>(lba % kChunkSectors);
    const std::uint32_t end = off + std::min(count, kChunkSectors - off);
    Chunk& chunk = get_or_create_chunk(lba / kChunkSectors);
    lba += end - off;
    count -= end - off;
    for (std::uint32_t run = 0; off < end; off += run) {
      run = std::min(end, (off / kPageSectors + 1) * kPageSectors) - off;
      std::unique_ptr<Page>& page = chunk.pages[off / kPageSectors];
      if (page == nullptr) {
        page = std::make_unique<Page>();
        ++pages_;
      }
      const std::size_t bytes = static_cast<std::size_t>(run) * kSectorSize;
      std::memcpy(page->data() + static_cast<std::size_t>(off % kPageSectors) * kSectorSize, src,
                  bytes);
      src += bytes;
      // A page's sectors share one bitmap word: mark [off, off+run)
      // written, counting only newly-set bits.
      static_assert(64 % kPageSectors == 0);
      std::uint64_t& word = chunk.written[off / 64];
      const std::uint64_t mask = ((std::uint64_t{1} << run) - 1) << (off % 64);
      written_count_ += static_cast<std::size_t>(std::popcount(mask & ~word));
      word |= mask;
    }
  }
}

void SectorStore::audit(audit::Report& report) const {
  audit::Check& check = report.check("store.chunks");
  const std::uint64_t chunk_count = (total_sectors_ + kChunkSectors - 1) / kChunkSectors;
  std::size_t written = 0;
  std::size_t pages = 0;
  for (const auto& [index, chunk] : chunks_) {
    check.require(index < chunk_count, "chunk index beyond end of disk",
                  index * kChunkSectors);
    for (std::uint32_t p = 0; p < kChunkPages; ++p) {
      const std::uint32_t first = p * kPageSectors;
      const std::uint64_t bits =
          (chunk.written[first / 64] >> (first % 64)) & ((std::uint64_t{1} << kPageSectors) - 1);
      written += static_cast<std::size_t>(std::popcount(bits));
      if (chunk.pages[p] != nullptr)
        ++pages;
      else if (bits != 0)
        check.fail("written sectors in an unallocated page", index * kChunkSectors + first);
    }
    // The final chunk of a disk whose size is not a multiple of 256 must
    // not mark out-of-range sectors written.
    if (index == chunk_count - 1 && total_sectors_ % kChunkSectors != 0) {
      const std::uint32_t valid = static_cast<std::uint32_t>(total_sectors_ % kChunkSectors);
      bool tail_clear = true;
      for (std::uint32_t bit = valid; bit < kChunkSectors; ++bit)
        if ((chunk.written[bit / 64] >> (bit % 64)) & 1) tail_clear = false;
      check.require(tail_clear, "written bits beyond end of disk in the final chunk",
                    index * kChunkSectors + valid);
    }
  }
  check.require(written == written_count_,
                "written-sector count disagrees with the chunk bitmaps");
  check.require(pages == pages_, "page count disagrees with the allocated pages");
  if (cached_index_ != kNoChunk) {
    const auto it = chunks_.find(cached_index_);
    check.require(it != chunks_.end() && &it->second == cached_chunk_,
                  "chunk cache points at a stale entry");
  } else {
    check.pass();
  }
}

}  // namespace trail::disk
