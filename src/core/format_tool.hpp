// Log-disk layout and the formatting tool (§4.1).
//
// "The formatting tool writes the log disk's physical geometry data as
// well as the signature and crash variable to the dedicated tracks on the
// log disk, and resets the rest of the disk content to zero." The header
// is "replicated at several other places on the disk to improve the
// robustness"; we use three replica tracks (first, middle, last), each
// holding the log_disk_header in sector 0 and the geometry block in
// sector 1.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/log_format.hpp"
#include "disk/disk_device.hpp"

namespace trail::core {

class LogDiskLayout {
 public:
  explicit LogDiskLayout(const disk::Geometry& geometry);

  [[nodiscard]] int replica_count() const { return static_cast<int>(replica_tracks_.size()); }
  [[nodiscard]] disk::TrackId replica_track(int replica) const;
  [[nodiscard]] disk::Lba header_lba(int replica) const;
  [[nodiscard]] disk::Lba geometry_lba(int replica) const;

  /// Tracks the TrackAllocator must never hand out.
  [[nodiscard]] std::vector<disk::TrackId> reserved_tracks() const { return replica_tracks_; }

 private:
  const disk::Geometry& geometry_;
  std::vector<disk::TrackId> replica_tracks_;
};

/// mkfs.trail: offline formatting (direct platter access, not timed I/O).
/// Wipes the disk and stamps every replica with {epoch 0, crash_var 1}
/// (clean) plus the geometry block.
void format_log_disk(disk::DiskDevice& device);

/// True if the device carries a valid Trail log-disk format (any replica
/// parses). Offline check used by mount.
[[nodiscard]] bool is_trail_log_disk(const disk::DiskDevice& device);

/// Timed header update through the normal command path: writes the header
/// sector of every replica in sequence, then invokes `done`. Used at
/// mount (crash_var=0 or 2, epoch bumped) and clean unmount (crash_var=1).
void write_disk_headers(disk::DiskDevice& device, const LogDiskHeader& header,
                        std::function<void()> done);

/// Timed header read: tries replicas in order until one parses; invokes
/// `done` with the result (nullopt if every replica is damaged).
void read_disk_header(disk::DiskDevice& device,
                      std::function<void(std::optional<LogDiskHeader>)> done);

}  // namespace trail::core
