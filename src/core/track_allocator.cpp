#include "core/track_allocator.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::core {

TrackAllocator::TrackAllocator(const disk::Geometry& geometry,
                               std::vector<disk::TrackId> reserved)
    : geometry_(geometry), reserved_(reserved.begin(), reserved.end()) {
  usable_.reserve(geometry_.track_count());
  for (disk::TrackId t = 0; t < geometry_.track_count(); ++t)
    if (!reserved_.contains(t)) usable_.push_back(t);
  if (usable_.size() < 2)
    throw std::invalid_argument("TrackAllocator: need at least two usable tracks");
  tail_ = usable_.front();
  live_.emplace(tail_, TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
}

TrackAllocator::TrackState& TrackAllocator::state(disk::TrackId track) {
  auto it = live_.find(track);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: track has no live state");
  return it->second;
}

std::uint32_t TrackAllocator::current_spt() const { return geometry_.spt_of_track(tail_); }

std::optional<TrackAllocator::FreeRun> TrackAllocator::free_run_from(std::uint32_t from) const {
  auto it = live_.find(tail_);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: tail has no state");
  const auto& occ = it->second.occupied;
  const auto spt = static_cast<std::uint32_t>(occ.size());
  for (std::uint32_t s = from; s < spt; ++s) {
    if (!occ[s]) {
      std::uint32_t len = 0;
      while (s + len < spt && !occ[s + len]) ++len;
      return FreeRun{s, len};
    }
  }
  return std::nullopt;
}

void TrackAllocator::occupy(std::uint32_t sector, std::uint32_t count, std::uint32_t records) {
  TrackState& st = state(tail_);
  if (sector + count > st.occupied.size())
    throw std::out_of_range("TrackAllocator::occupy: beyond end of track");
  for (std::uint32_t i = 0; i < count; ++i) {
    if (st.occupied[sector + i])
      throw std::logic_error("TrackAllocator::occupy: sector already occupied");
    st.occupied[sector + i] = true;
  }
  st.used += count;
  st.live_records += records;
}

double TrackAllocator::current_utilization() const {
  auto it = live_.find(tail_);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: tail has no state");
  return static_cast<double>(it->second.used) / static_cast<double>(it->second.occupied.size());
}

std::size_t TrackAllocator::usable_position(disk::TrackId track) const {
  const auto it = std::ranges::lower_bound(usable_, track);
  return it != usable_.end() && *it == track ? static_cast<std::size_t>(it - usable_.begin())
                                             : usable_.size();
}

disk::TrackId TrackAllocator::next_usable(disk::TrackId t) const {
  const std::size_t i = usable_position(t);
  if (i == usable_.size()) throw std::out_of_range("TrackAllocator: track not usable");
  return usable_[(i + 1) % usable_.size()];
}

std::optional<disk::TrackId> TrackAllocator::advance() {
  const disk::TrackId next = next_usable(tail_);
  if (live_.contains(next)) return std::nullopt;  // ring exhausted: log full

  // Retire the current tail's statistics; free it right away if all its
  // records have already been committed.
  auto it = live_.find(tail_);
  if (it != live_.end()) {
    if (it->second.used > 0) {
      ++finished_tracks_;
      finished_used_sectors_ += it->second.used;
      finished_total_sectors_ += it->second.occupied.size();
    }
    if (it->second.live_records == 0) live_.erase(it);
  }

  ++advances_;
  tail_ = next;
  live_.emplace(tail_, TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
  return tail_;
}

void TrackAllocator::release_record(disk::TrackId track) {
  auto it = live_.find(track);
  if (it == live_.end() || it->second.live_records == 0)
    throw std::logic_error("TrackAllocator::release_record: no live records on track");
  --it->second.live_records;
  if (it->second.live_records == 0 && track != tail_) live_.erase(it);
}

void TrackAllocator::adopt_record(disk::TrackId track, std::uint32_t first_sector,
                                  std::uint32_t sectors) {
  if (!is_usable(track)) throw std::invalid_argument("adopt_record: track not usable");
  const std::uint32_t spt = geometry_.spt_of_track(track);
  if (first_sector + sectors > spt) throw std::out_of_range("adopt_record: beyond end of track");
  TrackState& st =
      live_.try_emplace(track, TrackState{std::vector<bool>(spt, false), 0, 0}).first->second;
  for (std::uint32_t i = first_sector; i < first_sector + sectors; ++i) {
    if (st.occupied[i]) throw std::logic_error("adopt_record: sector already occupied");
    st.occupied[i] = true;
  }
  st.used += sectors;
  ++st.live_records;
}

bool TrackAllocator::set_tail_after(disk::TrackId track) {
  const disk::TrackId next = next_usable(track);
  if (!live_.contains(next) || live_.at(next).live_records == 0) {
    set_tail(next);
    return true;
  }
  // Full ring: the tail stays on `track`, whose adopted records keep
  // their live state.
  move_tail(track);
  return false;
}

void TrackAllocator::set_tail(disk::TrackId track) {
  if (!is_usable(track)) throw std::invalid_argument("set_tail: track not usable");
  if (live_.contains(track) && live_.at(track).live_records > 0)
    throw std::logic_error("set_tail: track has live records");
  live_.erase(track);  // settled leftover state, if any
  move_tail(track);
}

void TrackAllocator::move_tail(disk::TrackId track) {
  // Drop the pristine initial tail state if unused.
  auto it = live_.find(tail_);
  if (it != live_.end() && it->second.used == 0 && it->second.live_records == 0) live_.erase(it);
  tail_ = track;
  live_.try_emplace(tail_,
                    TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
}

void TrackAllocator::audit(audit::Report& report) const {
  audit::Check& check = report.check("alloc.tracks");
  check.require(is_usable(tail_), "tail is not a usable track");
  check.require(live_.contains(tail_), "tail track has no occupancy state");
  for (const auto& [track, st] : live_) {
    const disk::Lba lba = geometry_.first_lba_of_track(track);
    check.require(!reserved_.contains(track), "reserved track carries live state", lba);
    if (!check.require(is_usable(track), "live state on a non-usable track", lba))
      continue;
    if (!check.require(st.occupied.size() == geometry_.spt_of_track(track),
                       "occupancy bitmap size disagrees with the track geometry", lba))
      continue;
    const auto used = static_cast<std::uint32_t>(
        std::count(st.occupied.begin(), st.occupied.end(), true));
    check.require(used == st.used, "used-sector count disagrees with the occupancy bitmap",
                  lba);
    // advance() / release_record() reclaim a settled track the moment it
    // stops being the tail.
    check.require(st.live_records > 0 || track == tail_,
                  "settled non-tail track not reclaimed", lba);
  }
}

double TrackAllocator::mean_finished_track_utilization() const {
  if (finished_total_sectors_ == 0) return 0.0;
  return static_cast<double>(finished_used_sectors_) /
         static_cast<double>(finished_total_sectors_);
}

}  // namespace trail::core
