#include "core/buffer_manager.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::core {

namespace {

// Bitmask for the slots [off, off+run) of a group.
constexpr std::uint32_t run_mask(std::uint32_t off, std::uint32_t run) {
  return ((run >= 32 ? ~0u : (1u << run) - 1u)) << off;
}

}  // namespace

BufferManager::BufferManager(RecordDurableFn on_record_durable)
    : on_record_durable_(std::move(on_record_durable)) {
  if (!on_record_durable_)
    throw std::invalid_argument("BufferManager: record-durable callback required");
}

bool BufferManager::release_slot(Group& group, std::uint32_t idx) {
  SlotMeta& m = group.meta[idx];
  m.version = 0;
  m.durable_version = 0;
  m.cover_pins = 0;
  m.waiters = {};  // free capacity, not just size
  group.live_mask &= ~(1u << idx);
  --resident_sectors_;
  return group.live_mask == 0;
}

bool BufferManager::maybe_release(Group& group, std::uint32_t idx) {
  if (!slot_live(group, idx)) return false;
  const SlotMeta& m = group.meta[idx];
  if (m.waiters.empty() && m.durable_version >= m.version && m.cover_pins == 0)
    return release_slot(group, idx);
  return false;
}

BufferManager::Group& BufferManager::group_for(const Key& key) {
  auto it = groups_.find(key);
  if (it != groups_.end()) return it->second;
  if (!spare_groups_.empty()) {
    GroupMap::node_type node = std::move(spare_groups_.back());
    spare_groups_.pop_back();
    node.key() = key;
    return groups_.insert(std::move(node)).position->second;
  }
  return groups_[key];
}

void BufferManager::retire_group(GroupMap::iterator it) {
  // release_slot() already reset every slot; the payload array needs no
  // scrub because live_mask gates all access.
  if (spare_groups_.size() < kMaxSpareGroups)
    spare_groups_.push_back(groups_.extract(it));
  else
    groups_.erase(it);
}

void BufferManager::register_write(RecordId record, io::DeviceId dev, disk::Lba lba,
                                   std::span<const std::byte> data) {
  if (data.size() % disk::kSectorSize != 0 || data.empty())
    throw std::invalid_argument("BufferManager::register_write: not a sector multiple");
  const auto count = static_cast<std::uint32_t>(data.size() / disk::kSectorSize);
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    Group& group = group_for(Key{dev.index(), cur / kGroupSectors});
    std::memcpy(group.data.data() + static_cast<std::size_t>(off) * disk::kSectorSize,
                data.data() + static_cast<std::size_t>(i) * disk::kSectorSize,
                static_cast<std::size_t>(run) * disk::kSectorSize);
    const std::uint32_t fresh = run_mask(off, run) & ~group.live_mask;
    group.live_mask |= run_mask(off, run);
    resident_sectors_ += static_cast<std::size_t>(std::popcount(fresh));
    for (std::uint32_t s = off; s < off + run; ++s) {
      SlotMeta& m = group.meta[s];
      m.version = next_version_++;
      m.waiters.push_back(Waiter{record, m.version});
    }
    i += run;
  }
  pending_[record] += count;
  if (pinned_bytes() > high_water_) high_water_ = pinned_bytes();
}

bool BufferManager::covers(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const {
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    const std::uint32_t mask = run_mask(off, run);
    if (it == groups_.end() || (it->second.live_mask & mask) != mask) return false;
    i += run;
  }
  return true;
}

void BufferManager::overlay(io::DeviceId dev, disk::Lba lba, std::uint32_t count,
                            std::span<std::byte> buf) const {
  if (buf.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("BufferManager::overlay: buffer too small");
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    if (it != groups_.end()) {
      const Group& group = it->second;
      // Copy maximal extents of consecutive live sectors in one memcpy.
      std::uint32_t s = off;
      while (s < off + run) {
        if (!slot_live(group, s)) {
          ++s;
          continue;
        }
        std::uint32_t e = s + 1;
        while (e < off + run && slot_live(group, e)) ++e;
        std::memcpy(
            buf.data() + static_cast<std::size_t>(i + s - off) * disk::kSectorSize,
            group.data.data() + static_cast<std::size_t>(s) * disk::kSectorSize,
            static_cast<std::size_t>(e - s) * disk::kSectorSize);
        s = e;
      }
    }
    i += run;
  }
}

BufferManager::Image BufferManager::snapshot(io::DeviceId dev, disk::Lba lba,
                                             std::uint32_t count) const {
  Image img;
  img.data.resize(static_cast<std::size_t>(count) * disk::kSectorSize);
  img.versions.resize(count);
  snapshot_into(dev, lba, count, img.data, img.versions);
  return img;
}

void BufferManager::snapshot_into(io::DeviceId dev, disk::Lba lba, std::uint32_t count,
                                  std::span<std::byte> out,
                                  std::span<std::uint64_t> versions) const {
  if (out.size() < static_cast<std::size_t>(count) * disk::kSectorSize ||
      versions.size() < count)
    throw std::invalid_argument("BufferManager::snapshot_into: destination too small");
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    const std::uint32_t mask = run_mask(off, run);
    if (it == groups_.end() || (it->second.live_mask & mask) != mask)
      throw std::logic_error("BufferManager::snapshot: sector not pinned");
    const Group& group = it->second;
    std::memcpy(out.data() + static_cast<std::size_t>(i) * disk::kSectorSize,
                group.data.data() + static_cast<std::size_t>(off) * disk::kSectorSize,
                static_cast<std::size_t>(run) * disk::kSectorSize);
    for (std::uint32_t s = off; s < off + run; ++s) versions[i + s - off] = group.meta[s].version;
    i += run;
  }
}

void BufferManager::mark_durable(io::DeviceId dev, disk::Lba lba,
                                 std::span<const std::uint64_t> versions) {
  std::vector<RecordId> settled;
  const auto count = static_cast<std::uint32_t>(versions.size());
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    if (it == groups_.end()) {  // whole group already released by a newer write-back
      i += run;
      continue;
    }
    Group& group = it->second;
    bool group_empty = false;
    for (std::uint32_t s = off; s < off + run; ++s) {
      if (!slot_live(group, s)) continue;  // sector released earlier
      SlotMeta& m = group.meta[s];
      if (versions[i + s - off] > m.durable_version) m.durable_version = versions[i + s - off];
      // Release every waiter whose logged version is now durable.
      auto& ws = m.waiters;
      for (std::size_t w = 0; w < ws.size();) {
        if (ws[w].version <= m.durable_version) {
          auto pit = pending_.find(ws[w].record);
          if (pit == pending_.end() || pit->second == 0)
            throw std::logic_error("BufferManager: waiter for settled record");
          if (--pit->second == 0) {
            pending_.erase(pit);
            settled.push_back(ws[w].record);
          }
          ws[w] = ws.back();
          ws.pop_back();
        } else {
          ++w;
        }
      }
      // Unpin once nothing newer is outstanding and nobody waits.
      if (ws.empty() && m.durable_version >= m.version && m.cover_pins == 0)
        group_empty = release_slot(group, s);
    }
    if (group_empty) retire_group(it);
    i += run;
  }
  for (RecordId r : settled) on_record_durable_(r);
}

bool BufferManager::range_settled(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const {
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    if (it != groups_.end()) {
      const Group& group = it->second;
      for (std::uint32_t s = off; s < off + run; ++s) {
        if (!slot_live(group, s)) continue;  // fully released earlier: durable
        if (group.meta[s].durable_version < group.meta[s].version) return false;
      }
    }
    i += run;
  }
  return true;
}

void BufferManager::pin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count) {
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    const std::uint32_t mask = run_mask(off, run);
    if (it == groups_.end() || (it->second.live_mask & mask) != mask)
      throw std::logic_error("BufferManager::pin_range: sector not resident");
    for (std::uint32_t s = off; s < off + run; ++s) ++it->second.meta[s].cover_pins;
    i += run;
  }
}

void BufferManager::unpin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count) {
  std::uint32_t i = 0;
  while (i < count) {
    const disk::Lba cur = lba + i;
    const auto off = static_cast<std::uint32_t>(cur % kGroupSectors);
    const std::uint32_t run = std::min(count - i, kGroupSectors - off);
    auto it = groups_.find(Key{dev.index(), cur / kGroupSectors});
    if (it == groups_.end())
      throw std::logic_error("BufferManager::unpin_range: sector not pinned");
    Group& group = it->second;
    bool group_empty = false;
    for (std::uint32_t s = off; s < off + run; ++s) {
      if (!slot_live(group, s) || group.meta[s].cover_pins == 0)
        throw std::logic_error("BufferManager::unpin_range: sector not pinned");
      --group.meta[s].cover_pins;
      group_empty = maybe_release(group, s) || group_empty;
    }
    if (group_empty) retire_group(it);
    i += run;
  }
}

void BufferManager::audit(audit::Report& report) const {
  audit::Check& state = report.check("buffer.state");
  audit::Check& pending = report.check("buffer.pending");

  std::size_t live_total = 0;
  std::unordered_map<RecordId, std::uint32_t> waiting;  // record -> attached waiters
  for (const auto& [key, group] : groups_) {
    state.require(group.live_mask != 0, "empty group not retired");
    live_total += static_cast<std::size_t>(std::popcount(group.live_mask));
    for (std::uint32_t idx = 0; idx < kGroupSectors; ++idx) {
      const SlotMeta& m = group.meta[idx];
      const disk::Lba lba = key.group * kGroupSectors + idx;
      if (!slot_live(group, idx)) {
        state.require(m.version == 0 && m.waiters.empty() && m.cover_pins == 0,
                      "released slot retains bookkeeping", lba);
        continue;
      }
      state.require(m.version > 0, "live slot without a version", lba);
      // A slot stays resident only while something holds it: a waiter, a
      // write-back pin, or content newer than the data disk.
      if (m.waiters.empty() && m.cover_pins == 0)
        state.require(m.durable_version < m.version, "slot resident with nothing holding it",
                      lba);
      for (const Waiter& w : m.waiters) {
        ++waiting[w.record];
        state.require(w.version <= m.version, "waiter version newer than its slot", lba);
        state.require(w.version > m.durable_version,
                      "waiter already durable but not released", lba);
      }
    }
  }
  state.require(live_total == resident_sectors_,
                "resident-sector count disagrees with the group masks");

  for (const auto& [record, left] : pending_) {
    if (!pending.require(left > 0, "pending record with zero sectors left")) continue;
    const auto it = waiting.find(record);
    pending.require(it != waiting.end() && it->second == left,
                    "pending record's sectors-left disagrees with its attached waiters");
  }
  for (const auto& [record, n] : waiting)
    pending.require(pending_.contains(record), "waiter references a settled record");
}

void BufferManager::for_each_resident(
    const std::function<void(const ResidentInfo&)>& fn) const {
  for (const auto& [key, group] : groups_) {
    for (std::uint32_t idx = 0; idx < kGroupSectors; ++idx) {
      if (!slot_live(group, idx)) continue;
      const SlotMeta& m = group.meta[idx];
      fn(ResidentInfo{key.dev, key.group * kGroupSectors + idx, m.version, m.durable_version,
                      m.cover_pins, m.waiters.size()});
    }
  }
}

}  // namespace trail::core
