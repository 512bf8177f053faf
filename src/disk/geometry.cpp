#include "disk/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trail::disk {

Geometry::Geometry(std::uint32_t surfaces, std::vector<Zone> zones, double skew_fraction)
    : surfaces_(surfaces), zones_(std::move(zones)), skew_fraction_(skew_fraction) {
  if (surfaces_ == 0) throw std::invalid_argument("Geometry: surfaces must be > 0");
  if (zones_.empty()) throw std::invalid_argument("Geometry: at least one zone required");
  if (skew_fraction_ < 0.0 || skew_fraction_ >= 1.0)
    throw std::invalid_argument("Geometry: skew_fraction must be in [0, 1)");

  Lba lba = 0;
  std::uint32_t cyl = 0;
  for (const Zone& z : zones_) {
    if (z.cylinder_count == 0 || z.sectors_per_track == 0)
      throw std::invalid_argument("Geometry: zone with zero cylinders or sectors");
    zone_first_cylinder_.push_back(cyl);
    zone_first_lba_.push_back(lba);
    cyl += z.cylinder_count;
    lba += static_cast<Lba>(z.cylinder_count) * surfaces_ * z.sectors_per_track;
  }
  cylinders_ = cyl;
  total_sectors_ = lba;
}

std::size_t Geometry::zone_of_cylinder(std::uint32_t cylinder) const {
  if (cylinder >= cylinders_) throw std::out_of_range("Geometry: cylinder out of range");
  // Last zone whose first cylinder is <= cylinder.
  auto it = std::upper_bound(zone_first_cylinder_.begin(), zone_first_cylinder_.end(), cylinder);
  return static_cast<std::size_t>(it - zone_first_cylinder_.begin()) - 1;
}

std::uint32_t Geometry::spt_of_cylinder(std::uint32_t cylinder) const {
  return zones_[zone_of_cylinder(cylinder)].sectors_per_track;
}

Chs Geometry::to_chs(Lba lba) const {
  if (lba >= total_sectors_) throw std::out_of_range("Geometry: LBA out of range");
  auto it = std::upper_bound(zone_first_lba_.begin(), zone_first_lba_.end(), lba);
  const auto zi = static_cast<std::size_t>(it - zone_first_lba_.begin()) - 1;
  const Zone& z = zones_[zi];
  const Lba off = lba - zone_first_lba_[zi];
  const Lba per_cyl = static_cast<Lba>(surfaces_) * z.sectors_per_track;
  Chs chs;
  chs.cylinder = zone_first_cylinder_[zi] + static_cast<std::uint32_t>(off / per_cyl);
  const Lba in_cyl = off % per_cyl;
  chs.surface = static_cast<std::uint32_t>(in_cyl / z.sectors_per_track);
  chs.sector = static_cast<std::uint32_t>(in_cyl % z.sectors_per_track);
  return chs;
}

Lba Geometry::to_lba(const Chs& chs) const {
  const auto zi = zone_of_cylinder(chs.cylinder);
  const Zone& z = zones_[zi];
  if (chs.surface >= surfaces_) throw std::out_of_range("Geometry: surface out of range");
  if (chs.sector >= z.sectors_per_track) throw std::out_of_range("Geometry: sector out of range");
  const Lba per_cyl = static_cast<Lba>(surfaces_) * z.sectors_per_track;
  return zone_first_lba_[zi] + static_cast<Lba>(chs.cylinder - zone_first_cylinder_[zi]) * per_cyl +
         static_cast<Lba>(chs.surface) * z.sectors_per_track + chs.sector;
}

TrackId Geometry::track_of_lba(Lba lba) const {
  const Chs chs = to_chs(lba);
  return track_of(chs.cylinder, chs.surface);
}

Lba Geometry::first_lba_of_track(TrackId track) const {
  const std::uint32_t cyl = cylinder_of_track(track);
  const std::uint32_t surf = surface_of_track(track);
  return to_lba(Chs{cyl, surf, 0});
}

double Geometry::skew_of_track(TrackId track) const {
  const double raw = static_cast<double>(track) * skew_fraction_;
  return raw - std::floor(raw);
}

double Geometry::angle_of(TrackId track, std::uint32_t sector) const {
  const std::uint32_t spt = spt_of_track(track);
  if (sector >= spt) throw std::out_of_range("Geometry: sector out of range for track");
  const double a = skew_of_track(track) + static_cast<double>(sector) / spt;
  return a - std::floor(a);
}

std::uint32_t Geometry::sector_at_angle(TrackId track, double angle) const {
  const std::uint32_t spt = spt_of_track(track);
  double rel = angle - skew_of_track(track);
  rel -= std::floor(rel);
  auto sector = static_cast<std::uint32_t>(rel * spt);
  if (sector >= spt) sector = spt - 1;  // guard against FP edge at rel ~ 1.0
  return sector;
}

}  // namespace trail::disk
