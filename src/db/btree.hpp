// Disk-backed B+-tree — the ordered access method (Berkeley DB's native
// structure; the hash-indexed tables cover TPC-C, this covers ordered
// workloads and range scans).
//
// Layout: fixed u64 keys and u64 values over 4 KB pages in a PageFile,
// accessed through the shared BufferPool. Page 0 is reserved; the root,
// the page allocator cursor and the height live in memory. Leaves are
// chained through right-sibling links for range scans.
//
// Concurrency & durability model: single-writer (callers serialize
// structural operations, as the transaction layer does); index pages are
// NOT WAL-protected — like the tables' hash indexes, an index is rebuilt
// at boot (bulk_load_offline) from its base table, which keeps the redo
// log value-only; nothing reopens a tree from its pages.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "db/buffer_pool.hpp"
#include "db/page_file.hpp"
#include "db/types.hpp"
#include "sim/callback.hpp"

namespace trail::db {

class BTree {
 public:
  using Value = std::uint64_t;

  BTree(BufferPool& pool, std::uint32_t pool_file_id, PageFile& file,
        disk::DiskDevice* offline_device);

  /// Create an empty tree (one empty root leaf). Offline.
  void init_empty_offline();

  /// Insert-or-update. cb(false) only if the page file is exhausted.
  void insert(Key key, Value value, std::function<void(bool ok)> cb);

  void find(Key key, std::function<void(bool found, Value value)> cb);

  /// Visit entries with from <= key <= to in ascending order; `each`
  /// returns false to stop early. `done` fires after the scan.
  void scan(Key from, Key to, sim::Callback<bool(Key, Value)> each, sim::Callback<void()> done);

  /// Remove a key (leaf-local, no rebalancing — deleted space is reused
  /// by later inserts into the same leaf). cb(existed).
  void erase(Key key, std::function<void(bool existed)> cb);

  /// Offline bulk build from ascending (key, value) pairs: packed leaves,
  /// internal levels built bottom-up. Replaces any existing content.
  void bulk_load_offline(const std::vector<std::pair<Key, Value>>& sorted);

  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] PageNo pages_used() const { return next_free_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

  // Capacity constants (exposed for tests).
  static constexpr std::size_t kLeafCapacity = (kPageSize - 16) / 16;
  static constexpr std::size_t kInternalCapacity = (kPageSize - 16) / 12;

 private:
  struct PathEntry {
    PageNo page;
    std::uint32_t child_index;  // which child we descended into
  };

  void descend(Key key, sim::Callback<void(std::vector<PathEntry>, PageNo leaf)> cb);
  void insert_into_parent(std::vector<PathEntry> path, Key sep, PageNo new_child,
                          std::function<void(bool)> cb);
  [[nodiscard]] PageNo allocate_page();

  BufferPool& pool_;
  std::uint32_t file_id_;
  PageFile& file_;
  disk::DiskDevice* offline_;

  PageNo root_ = 1;
  PageNo next_free_ = 2;
  std::uint32_t height_ = 1;  // 1 = root is a leaf
  std::uint64_t size_ = 0;
};

}  // namespace trail::db
