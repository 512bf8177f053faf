#include "db/table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace trail::db {

Table::Table(std::string name, TableId id, std::uint32_t row_size, BufferPool& pool,
             std::uint32_t pool_file_id, PageNo page_count, disk::DiskDevice* device,
             PageFile* file)
    : name_(std::move(name)),
      id_(id),
      row_size_(row_size),
      pool_(pool),
      pool_file_id_(pool_file_id),
      page_count_(page_count),
      device_(device),
      file_(file) {
  if (row_size_ == 0 || slot_bytes() > kPageSize)
    throw std::invalid_argument("Table: bad row size");
  slots_per_page_ = static_cast<std::uint32_t>(kPageSize / slot_bytes());
}

void Table::write_slot(std::span<std::byte> page, std::uint32_t slot, bool used, Key key,
                       RowView row) const {
  std::byte* p = page.data() + static_cast<std::size_t>(slot) * slot_bytes();
  p[0] = std::byte(used ? 1 : 0);
  for (int i = 0; i < 8; ++i) p[1 + i] = std::byte(key >> (8 * i) & 0xFF);
  if (used) {
    if (row.size() != row_size_) throw std::invalid_argument("Table: row size mismatch");
    std::memcpy(p + 9, row.data(), row_size_);
  }
}

std::uint32_t Table::slot_for(Key key) {
  if (const std::uint32_t* existing = index_.find(key)) return *existing;
  std::uint32_t global;
  if (!free_slots_.empty()) {
    global = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (next_unused_slot_ >= capacity_rows())
      throw std::runtime_error("Table '" + name_ + "' is full");
    global = next_unused_slot_++;
  }
  index_[key] = global;
  return global;
}

std::optional<PageNo> Table::page_of(Key key) const {
  const std::uint32_t* global = index_.find(key);
  if (global == nullptr) return std::nullopt;
  return location_of(*global).page;
}

void Table::pin_page(PageNo page) { pool_.pin(pool_file_id_, page); }

void Table::unpin_page(PageNo page) { pool_.unpin(pool_file_id_, page); }

void Table::rebuild_index(const std::function<void(PageNo, std::span<std::byte>)>& read) {
  index_.clear();
  free_slots_.clear();
  constexpr PageNo kPagesPerRead = 64;
  std::vector<std::byte> pages(static_cast<std::size_t>(kPagesPerRead) * kPageSize);
  std::uint32_t highest_used = 0;
  bool any = false;
  for (PageNo first = 0; first < page_count_; first += kPagesPerRead) {
    const PageNo n = std::min(kPagesPerRead, page_count_ - first);
    read(first, std::span<std::byte>(pages).first(static_cast<std::size_t>(n) * kPageSize));
    for (PageNo p = 0; p < n; ++p) {
      for (std::uint32_t s = 0; s < slots_per_page_; ++s) {
        const std::byte* sp = pages.data() + static_cast<std::size_t>(p) * kPageSize +
                              static_cast<std::size_t>(s) * slot_bytes();
        if (sp[0] != std::byte{1}) continue;
        Key key = 0;
        for (int i = 0; i < 8; ++i) key |= static_cast<Key>(sp[1 + i]) << (8 * i);
        const std::uint32_t global = (first + p) * slots_per_page_ + s;
        index_[key] = global;
        highest_used = global;
        any = true;
      }
    }
  }
  next_unused_slot_ = any ? highest_used + 1 : 0;
  // Gaps below the high-water mark go to the free list.
  std::vector<bool> used(next_unused_slot_, false);
  index_.for_each([&used](Key, std::uint32_t g) { used[g] = true; });
  for (std::uint32_t g = 0; g < next_unused_slot_; ++g)
    if (!used[g]) free_slots_.push_back(g);
}

void Table::load_row_offline(Key key, RowView row) {
  if (device_ == nullptr || file_ == nullptr)
    throw std::logic_error("Table: no offline device attached");
  const Slot loc = location_of(slot_for(key));
  std::vector<std::byte>& page = offline_page_;
  page.resize(kPageSize);
  file_->peek_page_offline(*device_, loc.page, page);
  write_slot(page, loc.slot, true, key, row);
  file_->load_page_offline(*device_, loc.page, page);
}

}  // namespace trail::db
