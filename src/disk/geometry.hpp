// Physical disk geometry: zoned cylinder/surface/sector layout, LBA
// mapping, and angular position of sectors (including track skew).
//
// Both sides of the reproduction consume this class:
//  - the DiskDevice model uses it to cost seeks, rotational waits and
//    transfers, and
//  - the Trail driver uses it (legitimately — the paper's format tool
//    stores the geometry on the log disk) for disk-head position
//    prediction and "closest sector on the next track" computations.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/types.hpp"

namespace trail::disk {

/// A zone: a run of cylinders sharing a sectors-per-track count (zoned bit
/// recording — outer zones hold more sectors).
struct Zone {
  std::uint32_t cylinder_count = 0;
  std::uint32_t sectors_per_track = 0;
};

/// (cylinder, surface, sector) address.
struct Chs {
  std::uint32_t cylinder = 0;
  std::uint32_t surface = 0;
  std::uint32_t sector = 0;

  constexpr bool operator==(const Chs&) const = default;
};

class Geometry {
 public:
  /// `skew_fraction` is the fraction of a revolution by which each track's
  /// logical sector 0 is angularly offset from the previous track's, so
  /// that sequential transfers don't miss a full revolution on a track
  /// switch. 0 disables skew.
  Geometry(std::uint32_t surfaces, std::vector<Zone> zones, double skew_fraction = 0.15);

  [[nodiscard]] std::uint32_t surfaces() const { return surfaces_; }
  [[nodiscard]] std::uint32_t cylinders() const { return cylinders_; }
  [[nodiscard]] std::uint32_t track_count() const { return cylinders_ * surfaces_; }
  [[nodiscard]] Lba total_sectors() const { return total_sectors_; }
  [[nodiscard]] double skew_fraction() const { return skew_fraction_; }

  /// Sectors per track on the given cylinder / global track index.
  [[nodiscard]] std::uint32_t spt_of_cylinder(std::uint32_t cylinder) const;
  [[nodiscard]] std::uint32_t spt_of_track(TrackId track) const {
    return spt_of_cylinder(cylinder_of_track(track));
  }

  // Global track index <-> (cylinder, surface). Tracks are numbered
  // cylinder-major: track = cylinder * surfaces + surface.
  [[nodiscard]] std::uint32_t cylinder_of_track(TrackId track) const { return track / surfaces_; }
  [[nodiscard]] std::uint32_t surface_of_track(TrackId track) const { return track % surfaces_; }
  [[nodiscard]] TrackId track_of(std::uint32_t cylinder, std::uint32_t surface) const {
    return cylinder * surfaces_ + surface;
  }

  // LBA mapping. LBAs ascend within a track, then across surfaces of a
  // cylinder, then across cylinders (the conventional layout).
  [[nodiscard]] Chs to_chs(Lba lba) const;
  [[nodiscard]] Lba to_lba(const Chs& chs) const;
  [[nodiscard]] TrackId track_of_lba(Lba lba) const;
  [[nodiscard]] Lba first_lba_of_track(TrackId track) const;

  /// Angular position, in [0, 1) of a revolution, of the *leading edge* of
  /// `sector` on `track`, accounting for track skew.
  [[nodiscard]] double angle_of(TrackId track, std::uint32_t sector) const;

  /// The sector whose span contains the given angle on `track`.
  [[nodiscard]] std::uint32_t sector_at_angle(TrackId track, double angle) const;

  [[nodiscard]] const std::vector<Zone>& zones() const { return zones_; }

 private:
  [[nodiscard]] std::size_t zone_of_cylinder(std::uint32_t cylinder) const;
  [[nodiscard]] double skew_of_track(TrackId track) const;

  std::uint32_t surfaces_;
  std::uint32_t cylinders_ = 0;
  std::vector<Zone> zones_;
  double skew_fraction_;
  Lba total_sectors_ = 0;
  // Per-zone prefix data for O(lg zones) LBA mapping.
  std::vector<std::uint32_t> zone_first_cylinder_;
  std::vector<Lba> zone_first_lba_;
};

}  // namespace trail::disk
