#include "io/head_predictor.hpp"

#include <cmath>
#include <stdexcept>

namespace trail::io {

HeadPredictor::HeadPredictor(const disk::Geometry& geometry, sim::Duration rotate_time)
    : geometry_(geometry), rotate_time_(rotate_time) {
  if (rotate_time <= sim::Duration{0})
    throw std::invalid_argument("HeadPredictor: rotate_time must be positive");
}

std::uint32_t HeadPredictor::delta_sectors(disk::TrackId track) const {
  const std::uint32_t spt = geometry_.spt_of_track(track);
  const double sectors = static_cast<double>(delta_.ns()) /
                         static_cast<double>(rotate_time_.ns()) * spt;
  return static_cast<std::uint32_t>(std::ceil(sectors));
}

void HeadPredictor::set_reference(sim::TimePoint t0, disk::TrackId track, std::uint32_t sector) {
  has_reference_ = true;
  ref_time_ = t0;
  ref_track_ = track;
  // Trailing edge of `sector` == leading edge of sector+1 (mod SPT).
  const std::uint32_t spt = geometry_.spt_of_track(track);
  ref_angle_ = geometry_.angle_of(track, (sector + 1) % spt);
}

double HeadPredictor::angle_at(sim::TimePoint t) const {
  if (!has_reference_) throw std::logic_error("HeadPredictor: no reference point");
  const auto elapsed = (t - ref_time_).ns();
  const double revs = static_cast<double>(elapsed) / static_cast<double>(rotate_time_.ns());
  const double a = ref_angle_ + revs;
  return a - std::floor(a);
}

std::uint32_t HeadPredictor::predict_sector(disk::TrackId track, sim::TimePoint t) const {
  // Advance by δ (command overhead) and round the landing position up to
  // the next sector boundary: that sector's leading edge is reachable.
  // A small safety margin skips one further sector when the landing point
  // falls within the last tenth of a sector — with exact boundary
  // alignment (δ an integer number of sector times) the tiniest spindle
  // drift would otherwise turn "just makes it" into a full-rotation miss.
  constexpr double kBoundaryMargin = 0.10;
  const double a = angle_at(t + delta_);
  const std::uint32_t spt = geometry_.spt_of_track(track);
  const double pos = a * spt;
  double rel = pos - geometry_.angle_of(track, 0) * spt;  // sectors past logical 0
  rel -= std::floor(rel / spt) * spt;
  const auto under_head = static_cast<std::uint32_t>(rel) % spt;
  const double frac = rel - std::floor(rel);
  const std::uint32_t skip = frac > 1.0 - kBoundaryMargin ? 2 : 1;
  return (under_head + skip) % spt;
}

sim::Duration HeadPredictor::position_time(disk::TrackId track, std::uint32_t sector,
                                           sim::TimePoint t, sim::Duration seek) const {
  const double target = geometry_.angle_of(track, sector);
  double wait_revs = target - angle_at(t + delta_ + seek);
  wait_revs -= std::floor(wait_revs);  // [0, 1): fraction of a rotation
  const auto wait_ns = static_cast<std::int64_t>(
      wait_revs * static_cast<double>(rotate_time_.ns()));
  return delta_ + seek + sim::Duration{wait_ns};
}

}  // namespace trail::io
