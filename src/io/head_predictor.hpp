// Software-only disk-head position prediction (§3.1).
//
// The predictor never looks inside the DiskDevice model. Its only inputs
// are what the real Trail driver had: the disk geometry (read off the log
// disk at mount), the nominal rotation time, timestamps of completed
// commands, and the empirically calibrated δ that covers command
// processing overhead. A reference point (T0, LBA0) is refreshed on every
// completed command; predictions are the paper's formula
//
//   S1 = ((T1 - T0) mod RotateTime) / RotateTime * SPT + S0 + δ) mod SPT
//
// generalised across tracks/zones by working in angular units, so a
// reference taken on one track can predict a landing sector on another
// (needed for the "closest sector on the next track" repositioning).
//
// Trail's log writer keeps one per log disk; every DeviceQueue keeps one
// too, which the write-back policy's read class orders its reads by.
#pragma once

#include <cstdint>

#include "disk/geometry.hpp"
#include "sim/time.hpp"

namespace trail::io {

class HeadPredictor {
 public:
  /// `rotate_time` is the *nominal* rotation period (from the geometry
  /// block); real drives drift, which is why references must be refreshed.
  HeadPredictor(const disk::Geometry& geometry, sim::Duration rotate_time);

  /// δ expressed as time: how far (in rotation) the platter advances
  /// between issuing a command and its media phase beginning.
  void set_delta(sim::Duration delta) { delta_ = delta; }
  [[nodiscard]] sim::Duration delta() const { return delta_; }
  /// δ in sectors of `track` (the paper's unit; varies across zones).
  [[nodiscard]] std::uint32_t delta_sectors(disk::TrackId track) const;

  /// Record that at time `t0` the head had just finished passing `sector`
  /// on `track` (i.e. it sits at that sector's trailing edge). This is the
  /// state after a completed read/write whose last sector was `sector`.
  void set_reference(sim::TimePoint t0, disk::TrackId track, std::uint32_t sector);

  [[nodiscard]] bool has_reference() const { return has_reference_; }
  [[nodiscard]] disk::TrackId reference_track() const { return ref_track_; }
  [[nodiscard]] sim::TimePoint reference_time() const { return ref_time_; }

  /// Predicted platter angle (fraction of a revolution, [0,1)) under the
  /// head at time `t`, *without* the δ compensation.
  [[nodiscard]] double angle_at(sim::TimePoint t) const;

  /// The first sector on `track` whose leading edge the head can still
  /// reach for a command *issued* at time `t` — i.e. the sector after the
  /// position the platter will have advanced to once the command overhead
  /// (δ) has elapsed. Writing at or after this sector costs no extra
  /// rotation; writing before it costs nearly a full revolution.
  [[nodiscard]] std::uint32_t predict_sector(disk::TrackId track, sim::TimePoint t) const;

  /// Estimated head-positioning cost of a command issued at time `t`
  /// whose first sector is `sector` on `track`, with `seek` the arm or
  /// head move to that track: command overhead (δ), the seek, and the
  /// rotational wait until that sector's leading edge passes under the
  /// head. Built from the same published characteristics as
  /// predict_sector — it is the model's own claim of its positioning
  /// share, which the attribution layer charges to `req.phase.position`.
  [[nodiscard]] sim::Duration position_time(disk::TrackId track, std::uint32_t sector,
                                            sim::TimePoint t,
                                            sim::Duration seek = sim::Duration{0}) const;

 private:
  const disk::Geometry& geometry_;
  sim::Duration rotate_time_;
  sim::Duration delta_{0};
  bool has_reference_ = false;
  sim::TimePoint ref_time_;
  disk::TrackId ref_track_ = 0;
  double ref_angle_ = 0.0;  // trailing-edge angle at ref_time_
};

}  // namespace trail::io
