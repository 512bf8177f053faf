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
// Hot-path layout: sectors are stored in 16-sector groups keyed by
// (device, lba / 16), so the contiguous ranges every driver operation
// works on cost one hash probe per group run instead of one per sector.
// A liveness bitmask distinguishes resident sectors inside a group.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "disk/types.hpp"
#include "io/block.hpp"

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

  [[nodiscard]] std::size_t pinned_sectors() const { return resident_sectors_; }
  [[nodiscard]] std::size_t pinned_bytes() const { return resident_sectors_ * disk::kSectorSize; }
  [[nodiscard]] std::size_t pinned_bytes_high_water() const { return high_water_; }
  [[nodiscard]] std::size_t pending_records() const { return pending_.size(); }

  // ---- invariant audit (trail::audit) ----
  /// Internal-consistency audit: "buffer.state" (mask / residency / slot
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
  /// Sectors per group (8 KB — one DB page spans exactly one or two groups).
  static constexpr std::uint32_t kGroupSectors = 16;

  struct Key {
    std::uint32_t dev;
    disk::Lba group;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64 finalizer: full-avalanche mixing so group indices that
      // differ only in low bits spread across buckets.
      std::uint64_t x = k.group ^ (std::uint64_t{k.dev} << 56);
      x += 0x9E3779B97F4A7C15ULL;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };
  struct Waiter {
    RecordId record;
    std::uint64_t version;
  };
  struct SlotMeta {
    std::uint64_t version = 0;          // of the slot's payload
    std::uint64_t durable_version = 0;  // newest version on the data disk
    std::uint32_t cover_pins = 0;       // queued write-backs referencing it
    std::vector<Waiter> waiters;
  };
  struct Group {
    std::uint32_t live_mask = 0;  // bit i: slot i holds a resident sector
    std::array<SlotMeta, kGroupSectors> meta;
    // Payload kept contiguous (sector i at i*512) so register/overlay/
    // snapshot move whole runs with single memcpys.
    std::array<std::byte, static_cast<std::size_t>(kGroupSectors) * disk::kSectorSize> data;
  };
  using GroupMap = std::unordered_map<Key, Group, KeyHash>;

  [[nodiscard]] static bool slot_live(const Group& g, std::uint32_t idx) {
    return (g.live_mask >> idx) & 1;
  }
  /// Clear a released slot and drop it from the group; returns true if the
  /// group is now empty (caller retires it — iterators stay valid until then).
  bool release_slot(Group& group, std::uint32_t idx);
  /// Release the slot if nothing pins or awaits it; returns true if the
  /// group became empty.
  bool maybe_release(Group& group, std::uint32_t idx);

  /// Find-or-create, reusing a spare node so the steady-state log/write-back
  /// cycle does not malloc/free an ~9 KB group per request.
  Group& group_for(const Key& key);
  /// Remove an emptied group, keeping its allocation for reuse.
  void retire_group(GroupMap::iterator it);

  static constexpr std::size_t kMaxSpareGroups = 32;

  RecordDurableFn on_record_durable_;
  GroupMap groups_;
  std::vector<GroupMap::node_type> spare_groups_;
  std::unordered_map<RecordId, std::uint32_t> pending_;  // record -> sectors left
  std::uint64_t next_version_ = 1;
  std::size_t resident_sectors_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace trail::core
