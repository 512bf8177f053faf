// Discrete-event model of a single disk drive.
//
// One command is serviced at a time (submissions queue FIFO inside the
// device; any smarter scheduling is a driver concern, as in the paper's
// software stack). Each command pays:
//
//   fixed command overhead -> arm seek / head switch -> rotational wait
//   until the target sector's leading edge passes under the head ->
//   transfer (one sector per SPT-th of a revolution), with head switches
//   and re-waits when a request crosses track boundaries.
//
// The platter angle is a pure function of virtual time (constant angular
// velocity), which is exactly the property Trail's head-position
// prediction exploits. Written bytes land in a SectorStore that survives
// crash_halt(), and a write in flight at crash time commits only the
// sectors whose transfer had finished — so torn multi-sector writes are
// faithfully modelled for recovery testing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "disk/profile.hpp"
#include "disk/sector_store.hpp"
#include "disk/types.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trail::disk {

/// Aggregate accounting, used by benches (e.g. Table 2's "disk I/O time
/// for logging" is the log device's busy time).
struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
  sim::Duration busy;        // total command service time
  sim::Duration overhead;    // fixed per-command portion
  sim::Duration seek;        // arm motion + head switches
  sim::Duration rotation;    // rotational waits
  sim::Duration transfer;    // media transfer
};

class DiskDevice {
 public:
  using Completion = std::function<void()>;

  DiskDevice(sim::Simulator& sim, DiskProfile profile);

  DiskDevice(const DiskDevice&) = delete;
  DiskDevice& operator=(const DiskDevice&) = delete;

  /// Read `count` sectors into `out` (must outlive completion). The buffer
  /// is filled at completion time; `cb` fires at the completion instant.
  void read(Lba lba, std::uint32_t count, std::span<std::byte> out, Completion cb);

  /// Write `count` sectors. `data` is copied at submission, so the caller's
  /// buffer may be reused immediately.
  void write(Lba lba, std::uint32_t count, std::span<const std::byte> data, Completion cb);

  [[nodiscard]] const Geometry& geometry() const { return profile_.geometry; }
  [[nodiscard]] const DiskProfile& profile() const { return profile_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const DiskStats& stats() const { return stats_; }
  [[nodiscard]] SectorStore& store() { return store_; }
  [[nodiscard]] const SectorStore& store() const { return store_; }

  [[nodiscard]] bool busy() const { return in_flight_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Arm / active-head position after the last completed command.
  [[nodiscard]] std::uint32_t current_cylinder() const { return cylinder_; }
  [[nodiscard]] std::uint32_t current_surface() const { return surface_; }
  [[nodiscard]] TrackId current_track() const {
    return geometry().track_of(cylinder_, surface_);
  }

  /// Platter angle in [0, 1) at virtual time `t`.
  [[nodiscard]] double angle_at(sim::TimePoint t) const;

  /// Power failure: drop queued commands, truncate the in-flight write to
  /// the sectors already transferred, and reject all future submissions.
  /// No completion callbacks fire after this.
  void crash_halt();

  /// Undo crash_halt (models plugging the drive into a rebooted machine).
  void restart() { halted_ = false; }

  /// Writes that were acknowledged from the volatile cache but had not
  /// reached the media when crash_halt() hit (0 with WCE off).
  [[nodiscard]] std::uint64_t cached_writes_lost() const { return cached_writes_lost_; }

  [[nodiscard]] bool halted() const { return halted_; }

 private:
  struct Extent {
    Lba lba = 0;
    std::uint32_t count = 0;
    std::size_t data_offset = 0;            // into Request::data
    sim::TimePoint transfer_start;          // first sector begins here
    sim::Duration sector_time;
  };
  struct Request {
    bool is_write = false;
    Lba lba = 0;
    std::uint32_t count = 0;
    std::vector<std::byte> data;            // write payload (owned copy)
    std::span<std::byte> out;               // read destination (caller-owned)
    Completion cb;
  };

  void start_next();
  void begin_service(Request req);
  void finish_service();

  sim::Simulator& sim_;
  DiskProfile profile_;
  SeekModel seek_model_;
  SectorStore store_;
  DiskStats stats_;

  std::deque<Request> queue_;
  std::uint64_t cached_writes_lost_ = 0;  // acked-but-volatile at crash
  std::uint64_t wce_outstanding_ = 0;     // acked, media commit pending
  bool in_flight_ = false;

  Request active_;
  std::vector<Extent> active_extents_;
  sim::EventId completion_event_;
  bool halted_ = false;

  std::uint32_t cylinder_ = 0;
  std::uint32_t surface_ = 0;
};

}  // namespace trail::disk
