// PageFile: a fixed array of 4 KB pages living in a sector region of one
// data device, accessed through a BlockDriver (so the same database code
// runs over Trail or the standard driver).
#pragma once

#include <functional>
#include <span>

#include "db/types.hpp"
#include "disk/disk_device.hpp"
#include "io/block.hpp"

namespace trail::db {

class PageFile {
 public:
  PageFile(io::BlockDriver& driver, io::BlockAddr base, PageNo page_count);

  [[nodiscard]] PageNo page_count() const { return page_count_; }
  [[nodiscard]] io::BlockAddr base() const { return base_; }

  /// Read the whole pages from `first` on that fill `out`.
  void read_pages(PageNo first, std::span<std::byte> out, std::function<void()> done);
  void write_page(PageNo page, std::span<const std::byte> data, std::function<void()> done);

  /// Offline bulk load: place page bytes directly on the platter,
  /// bypassing timed I/O (used by dataset population, like a formatter).
  void load_page_offline(disk::DiskDevice& device, PageNo page,
                         std::span<const std::byte> data) const;
  /// Offline read of the platter image (population, bulk loads).
  void peek_page_offline(const disk::DiskDevice& device, PageNo page,
                         std::span<std::byte> out) const;

 private:
  [[nodiscard]] io::BlockAddr addr_of(PageNo page) const;

  io::BlockDriver& driver_;
  io::BlockAddr base_;
  PageNo page_count_;
};

}  // namespace trail::db
