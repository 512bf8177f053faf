#include "disk/sector_pool.hpp"

namespace trail::disk {

void SectorPool::copy(std::byte* dst, const std::byte* src, std::uint32_t sectors) {
  std::memcpy(dst, src, static_cast<std::size_t>(sectors) * kSectorSize);
}

}  // namespace trail::disk
