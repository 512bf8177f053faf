#include "core/buffer_manager.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::core {

namespace {

// Bitmask for the sectors [off, end) of a group.
constexpr std::uint32_t run_mask(std::uint32_t off, std::uint32_t end) {
  return ((1u << (end - off)) - 1u) << off;
}

}  // namespace

BufferManager::BufferManager(RecordDurableFn on_record_durable)
    : on_record_durable_(std::move(on_record_durable)) {
  if (!on_record_durable_)
    throw std::invalid_argument("BufferManager: record-durable callback required");
}

void BufferManager::release(Group& group, std::uint32_t s) {
  const disk::SectorPool::Id id = group.slot[s];
  Slot& m = slots_[id];
  m.version = 0;
  m.durable_version = 0;
  m.cover_pins = 0;
  m.waiters.clear();
  group.live &= ~(1u << s);
  pool_.release(id);
}

void BufferManager::maybe_release(Group& group, std::uint32_t s) {
  const Slot& m = slots_[group.slot[s]];
  if (m.waiters.empty() && m.durable_version >= m.version && m.cover_pins == 0)
    release(group, s);
}

void BufferManager::register_write(RecordId record, io::DeviceId dev, disk::Lba lba,
                                   std::span<const std::byte> data) {
  if (data.size() % disk::kSectorSize != 0 || data.empty())
    throw std::invalid_argument("BufferManager::register_write: not a sector multiple");
  const auto count = static_cast<std::uint32_t>(data.size() / disk::kSectorSize);
  const std::byte* src = data.data();
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    Group& group = groups_[group_key(dev, lba + i)];
    for (std::uint32_t s = off; s < end; ++s, src += disk::kSectorSize) {
      if (!live(group, s)) {
        group.slot[s] = pool_.acquire();
        if (group.slot[s] == slots_.size()) slots_.emplace_back();
        group.live |= 1u << s;
      }
      const disk::SectorPool::Id id = group.slot[s];
      disk::SectorPool::copy(pool_.data(id), src, 1);
      Slot& m = slots_[id];
      m.version = next_version_++;
      m.waiters.push_back(Waiter{record, m.version});
    }
    i += end - off;
  }
  pending_[record] += count;
  if (pinned_bytes() > high_water_) high_water_ = pinned_bytes();
}

bool BufferManager::covers(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const {
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    const Group* group = groups_.find(group_key(dev, lba + i));
    const std::uint32_t mask = run_mask(off, end);
    if (group == nullptr || (group->live & mask) != mask) return false;
    i += end - off;
  }
  return true;
}

void BufferManager::overlay(io::DeviceId dev, disk::Lba lba, std::uint32_t count,
                            std::span<std::byte> buf) const {
  if (buf.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("BufferManager::overlay: buffer too small");
  std::byte* dst = buf.data();
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    const Group* group = groups_.find(group_key(dev, lba + i));
    for (std::uint32_t s = off; s < end; ++s, dst += disk::kSectorSize)
      if (group != nullptr && live(*group, s))
        disk::SectorPool::copy(dst, pool_.data(group->slot[s]), 1);
    i += end - off;
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
  std::byte* dst = out.data();
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    const Group* group = groups_.find(group_key(dev, lba + i));
    const std::uint32_t mask = run_mask(off, end);
    if (group == nullptr || (group->live & mask) != mask)
      throw std::logic_error("BufferManager::snapshot: sector not pinned");
    for (std::uint32_t s = off; s < end; ++s, ++i, dst += disk::kSectorSize) {
      disk::SectorPool::copy(dst, pool_.data(group->slot[s]), 1);
      versions[i] = slots_[group->slot[s]].version;
    }
  }
}

void BufferManager::mark_durable(io::DeviceId dev, disk::Lba lba,
                                 std::span<const std::uint64_t> versions) {
  std::vector<RecordId> settled;
  const auto count = static_cast<std::uint32_t>(versions.size());
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    const std::uint64_t key = group_key(dev, lba + i);
    Group* group = groups_.find(key);
    if (group == nullptr) {  // whole group already released by a newer write-back
      i += end - off;
      continue;
    }
    for (std::uint32_t s = off; s < end; ++s, ++i) {
      if (!live(*group, s)) continue;  // sector released earlier
      Slot& m = slots_[group->slot[s]];
      if (versions[i] > m.durable_version) m.durable_version = versions[i];
      // Release every waiter whose logged version is now durable.
      Waiters& ws = m.waiters;
      for (std::size_t w = 0; w < ws.size();) {
        if (ws[w].version <= m.durable_version) {
          const RecordId record = ws[w].record;
          std::uint32_t* left = pending_.find(record);
          if (left == nullptr || *left == 0)
            throw std::logic_error("BufferManager: waiter for settled record");
          if (--*left == 0) {
            pending_.erase(record);
            settled.push_back(record);
          }
          ws.erase(w);
        } else {
          ++w;
        }
      }
      // Unpin once nothing newer is outstanding and nobody waits.
      maybe_release(*group, s);
    }
    if (group->live == 0) groups_.erase(key);
  }
  for (RecordId r : settled) on_record_durable_(r);
}

bool BufferManager::range_settled(io::DeviceId dev, disk::Lba lba, std::uint32_t count) const {
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    if (const Group* group = groups_.find(group_key(dev, lba + i))) {
      for (std::uint32_t s = off; s < end; ++s) {
        if (!live(*group, s)) continue;  // released earlier: durable
        const Slot& m = slots_[group->slot[s]];
        if (m.durable_version < m.version) return false;
      }
    }
    i += end - off;
  }
  return true;
}

void BufferManager::pin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    Group* group = groups_.find(group_key(dev, lba + i));
    const std::uint32_t mask = run_mask(off, end);
    if (group == nullptr || (group->live & mask) != mask)
      throw std::logic_error("BufferManager::pin_range: sector not resident");
    for (std::uint32_t s = off; s < end; ++s) ++slots_[group->slot[s]].cover_pins;
    i += end - off;
  }
}

void BufferManager::unpin_range(io::DeviceId dev, disk::Lba lba, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count;) {
    const auto off = static_cast<std::uint32_t>((lba + i) % kGroupSectors);
    const std::uint32_t end = off + std::min(count - i, kGroupSectors - off);
    const std::uint64_t key = group_key(dev, lba + i);
    Group* group = groups_.find(key);
    if (group == nullptr) throw std::logic_error("BufferManager::unpin_range: sector not pinned");
    for (std::uint32_t s = off; s < end; ++s) {
      if (!live(*group, s) || slots_[group->slot[s]].cover_pins == 0)
        throw std::logic_error("BufferManager::unpin_range: sector not pinned");
      --slots_[group->slot[s]].cover_pins;
      maybe_release(*group, s);
    }
    if (group->live == 0) groups_.erase(key);
    i += end - off;
  }
}

void BufferManager::audit(audit::Report& report) const {
  audit::Check& state = report.check("buffer.state");
  audit::Check& pending = report.check("buffer.pending");

  std::size_t live_total = 0;
  std::vector<bool> resident(slots_.size(), false);
  sim::FlatMap<std::uint32_t> waiting;  // record -> attached waiters
  groups_.for_each([&](std::uint64_t key, const Group& group) {
    const disk::Lba first = first_lba(key);
    state.require(group.live != 0, "empty group not retired", first);
    live_total += static_cast<std::size_t>(std::popcount(group.live));
    for (std::uint32_t s = 0; s < kGroupSectors; ++s) {
      if (!live(group, s)) continue;
      const disk::SectorPool::Id id = group.slot[s];
      if (!state.require(id < slots_.size() && !resident[id],
                         "resident sector without a slot of its own", first + s))
        continue;
      resident[id] = true;
      const Slot& m = slots_[id];
      state.require(m.version > 0, "live slot without a version", first + s);
      // A slot stays resident only while something holds it: a waiter, a
      // write-back pin, or content newer than the data disk.
      if (m.waiters.empty() && m.cover_pins == 0)
        state.require(m.durable_version < m.version, "slot resident with nothing holding it",
                      first + s);
      for (std::size_t w = 0; w < m.waiters.size(); ++w) {
        ++waiting[m.waiters[w].record];
        state.require(m.waiters[w].version <= m.version, "waiter version newer than its slot",
                      first + s);
        state.require(m.waiters[w].version > m.durable_version,
                      "waiter already durable but not released", first + s);
      }
    }
  });
  state.require(live_total == pool_.live(),
                "resident-sector count disagrees with the pool's live slots");
  // Freed payload goes to the next pin, so the pool never outgrows the
  // pinned high water.
  state.require(allocated_bytes() == high_water_, "payload held beyond the pinned high water");
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (resident[id]) continue;
    const Slot& m = slots_[id];
    state.require(m.version == 0 && m.waiters.empty() && m.cover_pins == 0,
                  "released slot retains bookkeeping");
  }

  pending_.for_each([&](RecordId record, std::uint32_t left) {
    if (!pending.require(left > 0, "pending record with zero sectors left")) return;
    const std::uint32_t* attached = waiting.find(record);
    pending.require(attached != nullptr && *attached == left,
                    "pending record's sectors-left disagrees with its attached waiters");
  });
  waiting.for_each([&](RecordId record, std::uint32_t) {
    pending.require(pending_.contains(record), "waiter references a settled record");
  });
}

void BufferManager::for_each_resident(
    const std::function<void(const ResidentInfo&)>& fn) const {
  groups_.for_each([&](std::uint64_t key, const Group& group) {
    const disk::Lba first = first_lba(key);
    for (std::uint32_t s = 0; s < kGroupSectors; ++s) {
      if (!live(group, s)) continue;
      const Slot& m = slots_[group.slot[s]];
      fn(ResidentInfo{static_cast<std::uint32_t>(key >> kDeviceShift), first + s, m.version,
                      m.durable_version, m.cover_pins, m.waiters.size()});
    }
  });
}

}  // namespace trail::core
