// Table: fixed-size rows in slotted pages with an in-memory hash index.
//
// Slot layout on the page: [u8 used][u64 key][row bytes], so the index
// can be rebuilt by scanning pages at boot (there is no persistent index
// structure — like the paper's Berkeley DB usage, the evaluation's tables
// are access-method-simple; the interesting machinery is underneath).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/buffer_pool.hpp"
#include "db/types.hpp"
#include "sim/flat_map.hpp"

namespace trail::db {

class Table {
 public:
  Table(std::string name, TableId id, std::uint32_t row_size, BufferPool& pool,
        std::uint32_t pool_file_id, PageNo page_count, disk::DiskDevice* device,
        PageFile* file);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TableId id() const { return id_; }
  [[nodiscard]] std::uint32_t row_size() const { return row_size_; }
  [[nodiscard]] std::uint64_t row_count() const { return index_.size(); }
  [[nodiscard]] std::uint64_t capacity_rows() const {
    return static_cast<std::uint64_t>(slots_per_page_) * page_count_;
  }
  [[nodiscard]] bool contains(Key key) const { return index_.contains(key); }

  /// Read a row through the buffer pool: cb(found, row), where `row` is a
  /// view into the page frame, valid for the call only. Any callable
  /// taking (bool, RowView) works; it rides by value into the pool's
  /// fetch, so a small one costs no allocation.
  template <typename F>
  void get(Key key, F cb) {
    const std::uint32_t* global = index_.find(key);
    if (global == nullptr) {
      cb(false, RowView{});
      return;
    }
    const Slot loc = location_of(*global);
    pool_.fetch(pool_file_id_, loc.page,
                [cb = std::move(cb), offset = row_offset(loc.slot),
                 size = row_size_](std::span<std::byte> page) mutable {
                  cb(true, RowView(page.subspan(offset, size)));
                });
  }

  /// Write a row image (insert-or-update) through the buffer pool; used
  /// by transaction apply and by WAL redo. `row` must stay valid until cb
  /// fires, which is once the page frame is updated (and dirty), not when
  /// it reaches disk. Like get, `cb` is any callable.
  template <typename F>
  void apply_image(Key key, RowView row, F cb) {
    const Slot loc = location_of(slot_for(key));
    pool_.fetch(pool_file_id_, loc.page,
                [this, key, row, loc, cb = std::move(cb)](std::span<std::byte> page) mutable {
                  write_slot(page, loc.slot, true, key, row);
                  pool_.mark_dirty(pool_file_id_, loc.page);
                  cb();
                });
  }

  /// Remove a row (transaction apply / redo of kDelete).
  template <typename F>
  void remove(Key key, F cb) {
    const std::uint32_t* global = index_.find(key);
    if (global == nullptr) {
      cb();
      return;
    }
    const Slot loc = location_of(*global);
    free_slots_.push_back(*global);
    index_.erase(key);
    pool_.fetch(pool_file_id_, loc.page,
                [this, loc, cb = std::move(cb)](std::span<std::byte> page) mutable {
                  page[static_cast<std::size_t>(loc.slot) * slot_bytes()] = std::byte{0};
                  pool_.mark_dirty(pool_file_id_, loc.page);
                  cb();
                });
  }

  /// Page currently holding `key`, if present.
  [[nodiscard]] std::optional<PageNo> page_of(Key key) const;
  /// NO-STEAL pins, forwarded to the buffer pool with this table's file id.
  void pin_page(PageNo page);
  void unpin_page(PageNo page);

  /// Boot path (Database::recover): rebuild the hash index and free-slot
  /// bookkeeping from the table's page images. `read(first, out)` fills
  /// `out` with the images of the whole pages from `first` on before it
  /// returns.
  void rebuild_index(const std::function<void(PageNo first, std::span<std::byte> out)>& read);

  /// Offline bulk load used by dataset population (no timed I/O): writes
  /// the row image directly to the platter and indexes it.
  void load_row_offline(Key key, RowView row);

  /// Iterate all keys (index order unspecified).
  void for_each_key(const std::function<void(Key)>& fn) const {
    index_.for_each([&fn](Key key, std::uint32_t) { fn(key); });
  }

 private:
  struct Slot {
    PageNo page;
    std::uint32_t slot;
  };
  [[nodiscard]] std::uint32_t slot_bytes() const { return 1 + 8 + row_size_; }
  [[nodiscard]] Slot location_of(std::uint32_t global_slot) const {
    return Slot{global_slot / slots_per_page_, global_slot % slots_per_page_};
  }
  [[nodiscard]] std::size_t row_offset(std::uint32_t slot) const {
    return static_cast<std::size_t>(slot) * slot_bytes() + 9;
  }
  /// The key's global slot, allocating one if it has none.
  [[nodiscard]] std::uint32_t slot_for(Key key);
  void write_slot(std::span<std::byte> page, std::uint32_t slot, bool used, Key key,
                  RowView row) const;

  std::string name_;
  TableId id_;
  std::uint32_t row_size_;
  BufferPool& pool_;
  std::uint32_t pool_file_id_;
  PageNo page_count_;
  std::uint32_t slots_per_page_;
  disk::DiskDevice* device_;  // offline population
  PageFile* file_;

  sim::FlatMap<std::uint32_t> index_;  // key -> global slot
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_unused_slot_ = 0;
  std::vector<std::byte> offline_page_;  // load_row_offline's page image
};

}  // namespace trail::db
