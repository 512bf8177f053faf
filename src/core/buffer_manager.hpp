// Trail's staging-buffer bookkeeping (§4.2).
//
// Every data block written to the log disk is pinned in host memory until
// a write-back carrying content at least as new reaches the data disk.
// The manager works at sector granularity so overlapping requests of any
// alignment compose correctly:
//
//  * register_write  — a request's sectors were logged; bump each sector's
//    version and attach the owning write record as a waiter.
//  * snapshot        — the write-back engine asks, at *dispatch* time, for
//    the latest content of a range (this is how "only one request for the
//    buffer is kept in the queue and other write requests to the same
//    buffer are skipped": later versions ride the first dispatch).
//  * mark_durable    — sectors hit the data disk at given versions; every
//    waiter whose version is covered is released, and when a record's
//    last sector is covered the record-durable callback fires so the
//    driver can free its log track ("one or multiple log disk tracks that
//    share the same source buffer page may be reclaimed simultaneously").
//
// The paper's cancellation rule (a write-back is dropped when its source
// buffer changed since logging) appears here as record_settled(): a
// queued write-back whose record was already satisfied by a newer
// dispatch is skipped at dispatch time.
//
// Layout: a resident sector costs one 512-byte slot of a disk::SectorPool
// (the allocator SectorStore draws from) plus a 64-byte record of its
// versions, cover pins and waiters, the first waiter inline: a sector is
// usually logged once before its write-back lands. Sectors are indexed in
// 16-sector groups keyed by (device, lba / 16) in an open-addressing map,
// so the contiguous ranges every driver operation works on cost one probe
// per group run; a group is a liveness mask and the slot id of each
// resident sector (68 bytes), not payload. A released slot goes back to
// the pool, and the next pin reuses its payload and record, so the
// manager holds the peak pinned payload and no more.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "disk/sector_pool.hpp"
#include "disk/types.hpp"
#include "io/block.hpp"
#include "sim/flat_map.hpp"

namespace trail::audit {
class Report;
}

namespace trail::core {

using RecordId = std::uint64_t;

class BufferManager {
 public:
  using RecordDurableFn = std::function<void(RecordId)>;

  /// `on_record_durable` fires when the last pending sector of a record
  /// becomes durable on the data disks.
  explicit BufferManager(RecordDurableFn on_record_durable);

  /// Pin a logged request's content under `record`. `data` holds
  /// count*512 bytes of the *unescaped* (original) block content.
  void register_write(RecordId record, io::DeviceId dev, disk::Lba lba,
                      std::span<const std::byte> data);

  /// True if every sector of the range is pinned (read served from memory).
  [[nodiscard]] bool covers(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const;
  /// Copy pinned sectors of the range over `buf` (other sectors untouched).
  void overlay(io::DeviceId dev, disk::Lba lba, std::uint32_t count,
               std::span<std::byte> buf) const;

  /// Latest pinned content + per-sector versions for a write-back dispatch.
  /// Every sector must be pinned (guaranteed while the owning record is
  /// unsettled).
  struct Image {
    std::vector<std::byte> data;
    std::vector<std::uint64_t> versions;
  };
  [[nodiscard]] Image snapshot(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const;

  /// Allocation-free form of snapshot(): copy the range's latest content
  /// into `out` (count*512 bytes) and its per-sector versions into
  /// `versions` (count entries). The batched write-back dispatch uses this
  /// to materialize each coalesced sub-range directly into the shared
  /// device-command image.
  void snapshot_into(io::DeviceId dev, disk::Lba lba, std::uint32_t count,
                     std::span<std::byte> out, std::span<std::uint64_t> versions) const;

  /// A write-back of the range completed on the data disk carrying the
  /// given per-sector versions.
  void mark_durable(io::DeviceId dev, disk::Lba lba, std::span<const std::uint64_t> versions);

  /// True once the record's every sector is durable (its write-back, if
  /// still queued, can be skipped).
  [[nodiscard]] bool record_settled(RecordId record) const {
    return !pending_.contains(record);
  }

  /// True when every sector of the range already has its latest content on
  /// the data disk — the §4.2 "skip" test for a queued write-back.
  [[nodiscard]] bool range_settled(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const;

  /// Keep the range's sectors resident while a queued write-back
  /// references them (snapshot() must be able to materialize at dispatch
  /// even if overlapping later writes have already settled the sectors).
  void pin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count);
  void unpin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count);

  [[nodiscard]] std::size_t pinned_sectors() const { return pool_.live(); }
  [[nodiscard]] std::size_t pinned_bytes() const { return pool_.live() * disk::kSectorSize; }
  [[nodiscard]] std::size_t pinned_bytes_high_water() const { return high_water_; }
  /// Payload bytes the manager holds, pinned or free for the next pin:
  /// the high water of pinned_bytes().
  [[nodiscard]] std::size_t allocated_bytes() const { return pool_.allocated_bytes(); }
  [[nodiscard]] std::size_t pending_records() const { return pending_.size(); }

  // ---- invariant audit (trail::audit) ----
  /// Internal-consistency audit: "buffer.state" (index / residency / slot
  /// bookkeeping) and "buffer.pending" (waiter <-> pending-record
  /// agreement). Cold path; see DESIGN.md §9.
  void audit(audit::Report& report) const;

  /// One resident sector's bookkeeping, for cross-layer audits (the
  /// driver checks durable sectors against the data-disk platters).
  struct ResidentInfo {
    std::uint32_t dev_index = 0;  // io::DeviceId::index()
    disk::Lba lba = 0;
    std::uint64_t version = 0;
    std::uint64_t durable_version = 0;
    std::uint32_t cover_pins = 0;
    std::size_t waiter_count = 0;
  };
  void for_each_resident(const std::function<void(const ResidentInfo&)>& fn) const;

 private:
  struct Waiter {
    RecordId record;
    std::uint64_t version;  // >= 1: versions start at 1
  };
  /// A slot's waiters as one list, the first inline; erase() moves the
  /// last into the hole, so the order matches a vector's swap-and-pop.
  class Waiters {
   public:
    [[nodiscard]] std::size_t size() const { return (first_.version != 0 ? 1 : 0) + rest_.size(); }
    [[nodiscard]] bool empty() const { return first_.version == 0; }
    [[nodiscard]] const Waiter& operator[](std::size_t i) const {
      return i == 0 ? first_ : rest_[i - 1];
    }
    void push_back(Waiter w) {
      if (empty())
        first_ = w;
      else
        rest_.push_back(w);
    }
    void erase(std::size_t i) {
      if (rest_.empty()) {
        first_ = Waiter{};
        return;
      }
      (i == 0 ? first_ : rest_[i - 1]) = rest_.back();
      rest_.pop_back();
    }
    void clear() {
      first_ = Waiter{};
      rest_ = {};  // free capacity, not just size
    }

   private:
    Waiter first_{};
    std::vector<Waiter> rest_;
  };
  struct Slot {
    std::uint64_t version = 0;          // of the slot's payload
    std::uint64_t durable_version = 0;  // newest version on the data disk
    std::uint32_t cover_pins = 0;       // queued write-backs referencing it
    Waiters waiters;
  };

  /// Sectors per index entry (8 KB: one DB page spans one or two groups).
  static constexpr std::uint32_t kGroupSectors = 16;
  struct Group {
    std::uint32_t live = 0;  // bit i: sector i of the group is resident
    std::array<disk::SectorPool::Id, kGroupSectors> slot;  // meaningful where live
  };
  static_assert(kGroupSectors < 32, "a group's live mask is one word with room to spare");
  /// Index key: the device above kDeviceShift, the group number (far
  /// below 2^48 on any modelled disk) under it.
  static constexpr unsigned kDeviceShift = 48;
  [[nodiscard]] static std::uint64_t group_key(io::DeviceId dev, disk::Lba lba) {
    return std::uint64_t{dev.index()} << kDeviceShift | lba / kGroupSectors;
  }
  [[nodiscard]] static disk::Lba first_lba(std::uint64_t key) {
    return (key & ((std::uint64_t{1} << kDeviceShift) - 1)) * kGroupSectors;
  }
  [[nodiscard]] static bool live(const Group& g, std::uint32_t s) { return ((g.live >> s) & 1) != 0; }
  /// Release the group's sector `s` if nothing pins or awaits it.
  void maybe_release(Group& group, std::uint32_t s);
  /// Return the group's sector `s` to the pool, blanking its record.
  void release(Group& group, std::uint32_t s);

  RecordDurableFn on_record_durable_;
  disk::SectorPool pool_;
  std::vector<Slot> slots_;  // bookkeeping by slot id, kept across reuse
  sim::FlatMap<Group> groups_;  // group_key(dev, lba) -> resident sectors
  sim::FlatMap<std::uint32_t> pending_;       // record -> sectors left
  std::uint64_t next_version_ = 1;
  std::size_t high_water_ = 0;
};

}  // namespace trail::core
