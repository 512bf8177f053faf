// Circular FIFO allocation of log-disk tracks (§4.1, §4.4).
//
// "Essentially the entire log disk serves as a circular logging buffer,
// with tracks as basic logging units." Tracks are consumed at the tail
// (where the head writes) and reclaimed at the head, strictly in FIFO
// order — the property that makes Trail's garbage collection free (§2).
//
// The allocator tracks, per active track, which sectors are occupied and
// how many live (not yet committed) records it carries, plus cumulative
// per-track utilization statistics for the §5.2 space-efficiency study.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disk/geometry.hpp"
#include "disk/types.hpp"

namespace trail::audit {
class Report;
}

namespace trail::core {

class TrackAllocator {
 public:
  /// `reserved` tracks (disk header, geometry block, replicas) are never
  /// allocated. The first usable track in physical order becomes the
  /// initial tail.
  TrackAllocator(const disk::Geometry& geometry, std::vector<disk::TrackId> reserved);

  /// Track currently being appended to.
  [[nodiscard]] disk::TrackId current() const { return tail_; }

  /// Sectors-per-track of the current track.
  [[nodiscard]] std::uint32_t current_spt() const;

  /// First free sector index >= `from` on the current track such that at
  /// least one sector is writable, together with the length of the free
  /// run starting there (bounded by the physical end of the track — log
  /// writes never wrap within a track). nullopt if nothing free at/after
  /// `from`.
  struct FreeRun {
    std::uint32_t first_sector = 0;
    std::uint32_t length = 0;
  };
  [[nodiscard]] std::optional<FreeRun> free_run_from(std::uint32_t from) const;

  /// Mark `count` sectors used on the current track starting at `sector`,
  /// carrying `records` live write records.
  void occupy(std::uint32_t sector, std::uint32_t count, std::uint32_t records);

  /// Fraction of the current track's sectors occupied.
  [[nodiscard]] double current_utilization() const;

  /// Advance the tail to the next usable track in circular order. Fails
  /// (returns nullopt, tail unchanged) when the ring is exhausted — i.e.
  /// the next track still carries live records ("the entire log disk runs
  /// out of free track", §4.4).
  std::optional<disk::TrackId> advance();

  /// One live record on `track` was committed/cancelled. Frees the track
  /// when its live count reaches zero (and it is not the current tail).
  void release_record(disk::TrackId track);

  /// Number of tracks carrying at least one live record.
  [[nodiscard]] std::size_t live_track_count() const { return live_.size(); }

  [[nodiscard]] bool is_reserved(disk::TrackId track) const { return reserved_.contains(track); }
  [[nodiscard]] std::size_t usable_track_count() const { return usable_.size(); }

  /// Live (uncommitted) records currently accounted to `track`; 0 when
  /// the track carries no live state. Used by cross-layer audits.
  [[nodiscard]] std::uint32_t live_records_on(disk::TrackId track) const {
    const auto it = live_.find(track);
    return it == live_.end() ? 0 : it->second.live_records;
  }

  /// Internal-consistency audit ("alloc.tracks"): per-track occupancy
  /// bookkeeping, reserved/usable discipline, tail state. See DESIGN.md §9.
  void audit(audit::Report& report) const;

  /// Restore one record's state from recovery: its `sectors` sectors
  /// from `first_sector` on `track` (header and payload) are occupied and
  /// the track carries one more live record (used when recovery re-adopts
  /// pending records instead of writing them back).
  void adopt_record(disk::TrackId track, std::uint32_t first_sector, std::uint32_t sectors);

  /// Post-recovery resume after the youngest pending record, on `track`:
  /// position the tail at the usable track following it, or, when that
  /// track still carries live records (the ring is full), ON `track`,
  /// keeping its live state. Returns false in the second case: the caller
  /// stalls until a track is freed.
  bool set_tail_after(disk::TrackId track);

  /// Position the tail exactly ON `track` (clean-mount resume: the
  /// track's previous contents are all settled, so appending over them is
  /// safe — and, unlike skipping ahead, it leaves no stale-keyed track
  /// between epochs, preserving the circular key monotonicity recovery's
  /// binary search requires).
  void set_tail(disk::TrackId track);

  // ---- statistics (§5.2 track-utilization study) ----
  /// Mean fraction of sectors used across all tracks that were ever
  /// occupied and then advanced past (i.e. finished tracks).
  [[nodiscard]] double mean_finished_track_utilization() const;
  [[nodiscard]] std::uint64_t finished_track_count() const { return finished_tracks_; }
  [[nodiscard]] std::uint64_t total_track_advances() const { return advances_; }

 private:
  struct TrackState {
    std::vector<bool> occupied;  // per-sector
    std::uint32_t used = 0;
    std::uint32_t live_records = 0;
  };

  [[nodiscard]] disk::TrackId next_usable(disk::TrackId t) const;
  /// Index of `track` in usable_ (binary search), or usable_.size() if
  /// the track is not usable.
  [[nodiscard]] std::size_t usable_position(disk::TrackId track) const;
  [[nodiscard]] bool is_usable(disk::TrackId track) const {
    return usable_position(track) < usable_.size();
  }
  TrackState& state(disk::TrackId track);
  /// Make `track` the tail, keeping any state it has.
  void move_tail(disk::TrackId track);

  const disk::Geometry& geometry_;
  std::unordered_set<disk::TrackId> reserved_;
  std::vector<disk::TrackId> usable_;  // physical order, so sorted
  std::unordered_map<disk::TrackId, TrackState> live_;
  disk::TrackId tail_ = 0;

  std::uint64_t finished_tracks_ = 0;
  std::uint64_t finished_used_sectors_ = 0;
  std::uint64_t finished_total_sectors_ = 0;
  std::uint64_t advances_ = 0;
};

}  // namespace trail::core
