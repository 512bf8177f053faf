#include "db/page_file.hpp"

#include <stdexcept>

namespace trail::db {

PageFile::PageFile(io::BlockDriver& driver, io::BlockAddr base, PageNo page_count)
    : driver_(driver), base_(base), page_count_(page_count) {
  if (page_count == 0) throw std::invalid_argument("PageFile: zero pages");
}

io::BlockAddr PageFile::addr_of(PageNo page) const {
  if (page >= page_count_) throw std::out_of_range("PageFile: page out of range");
  io::BlockAddr addr = base_;
  addr.lba += static_cast<disk::Lba>(page) * kSectorsPerPage;
  return addr;
}

void PageFile::read_pages(PageNo first, std::span<std::byte> out, std::function<void()> done) {
  const auto pages = static_cast<PageNo>(out.size() / kPageSize);
  if (pages == 0 || first + pages > page_count_)
    throw std::out_of_range("PageFile: page out of range");
  driver_.submit_read(addr_of(first), pages * kSectorsPerPage, out, std::move(done));
}

void PageFile::write_page(PageNo page, std::span<const std::byte> data,
                          std::function<void()> done) {
  driver_.submit_write(addr_of(page), kSectorsPerPage, data, std::move(done));
}

void PageFile::load_page_offline(disk::DiskDevice& device, PageNo page,
                                 std::span<const std::byte> data) const {
  device.store().write(addr_of(page).lba, kSectorsPerPage, data);
}

void PageFile::peek_page_offline(const disk::DiskDevice& device, PageNo page,
                                 std::span<std::byte> out) const {
  device.store().read(addr_of(page).lba, kSectorsPerPage, out);
}

}  // namespace trail::db
