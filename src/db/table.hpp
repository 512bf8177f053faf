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
#include <unordered_map>
#include <vector>

#include "db/buffer_pool.hpp"
#include "db/types.hpp"

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

  /// Read a row through the buffer pool. cb(found, row bytes).
  void get(Key key, std::function<void(bool, RowBuf)> cb);

  /// Write a row image (insert-or-update) through the buffer pool; used
  /// by transaction apply and by WAL redo. cb fires once the page frame
  /// is updated (and dirty), not when it reaches disk.
  void apply_image(Key key, const RowBuf& row, std::function<void()> cb);

  /// Remove a row (transaction apply / redo of kDelete).
  void remove(Key key, std::function<void()> cb);

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
  void load_row_offline(Key key, const RowBuf& row);

  /// Iterate all keys (index order unspecified).
  void for_each_key(const std::function<void(Key)>& fn) const;

 private:
  struct Slot {
    PageNo page;
    std::uint32_t slot;
  };
  [[nodiscard]] std::uint32_t slot_bytes() const { return 1 + 8 + row_size_; }
  [[nodiscard]] Slot location_of(std::uint32_t global_slot) const {
    return Slot{global_slot / slots_per_page_, global_slot % slots_per_page_};
  }
  [[nodiscard]] std::uint32_t allocate_slot(Key key);
  void write_slot(std::span<std::byte> page, std::uint32_t slot, bool used, Key key,
                  const RowBuf& row) const;

  std::string name_;
  TableId id_;
  std::uint32_t row_size_;
  BufferPool& pool_;
  std::uint32_t pool_file_id_;
  PageNo page_count_;
  std::uint32_t slots_per_page_;
  disk::DiskDevice* device_;  // offline population
  PageFile* file_;

  std::unordered_map<Key, std::uint32_t> index_;  // key -> global slot
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_unused_slot_ = 0;
};

}  // namespace trail::db
