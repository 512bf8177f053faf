// DeviceQueue: a scheduling front-end for one DiskDevice.
//
// The DiskDevice itself services commands strictly FIFO; the DeviceQueue
// holds requests back and releases exactly one at a time so the chosen
// IoScheduler policy (elevator, priority classes) actually controls
// service order. Dispatch is work-conserving within a priority class but
// not below it: for one command overhead after a command leaves the
// device, a worse class waits, and a request of the finished command's
// class arriving in that window goes out first (anticipatory scheduling,
// Iyer & Druschel, SOSP 2001). On Trail's data disks this keeps
// write-backs off the platter while a reader issues its next read, as
// §4.3's read priority intends; a queue whose requests share one class
// never waits. A batched write-back drops its redundant or
// already-settled ranges at dispatch (§4.2). Both the standard baseline
// driver and Trail's write-back engine are built on it.
//
// The queue predicts its device's head the way §3.1's log writer does:
// one HeadPredictor, referenced at the trailing edge of every command
// that leaves the device, with δ the profile's command overhead and the
// profile's published seek curve for arm moves. The write-back policy
// orders its reads by that prediction (scheduler.hpp); the other
// policies never ask for it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "disk/disk_device.hpp"
#include "disk/seek_model.hpp"
#include "io/head_predictor.hpp"
#include "io/scheduler.hpp"
#include "obs/obs.hpp"

namespace trail::io {

class DeviceQueue {
 public:
  DeviceQueue(disk::DiskDevice& device, std::unique_ptr<IoScheduler> scheduler);
  /// A command still on the device completes as a no-op: neither its
  /// callback nor the queue runs.
  ~DeviceQueue() { *alive_ = false; }

  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;

  /// Enqueue; dispatches immediately if the device is idle, unless a
  /// hold keeps the request's class waiting.
  void submit(PendingIo io);

  /// Requests queued here (excludes the one on the device).
  [[nodiscard]] std::size_t queued() const { return scheduler_->size(); }
  /// True when neither the queue nor the device holds work from us.
  [[nodiscard]] bool idle() const { return !dispatched_ && scheduler_->empty(); }

  [[nodiscard]] disk::DiskDevice& device() { return device_; }

  /// Predicted positioning time (command overhead + seek + rotational
  /// wait) of a command starting at `lba` issued now, from the head's
  /// state when the last command left the device. Requires a command to
  /// have left it.
  [[nodiscard]] sim::Duration position_time(disk::Lba lba) const;

  /// Invoked whenever the queue becomes idle (used by drain logic).
  void set_idle_callback(std::function<void()> cb) { on_idle_ = std::move(cb); }

  /// Optional observability: per-command service spans ("io.read" /
  /// "io.write") and "io.hold" instants on lane `tid`, queue-depth gauge
  /// + counter lane, a counter of write-back ranges dropped at dispatch,
  /// counters of held lower-class dispatches and of holds a request of
  /// the held class ended, and counters of reads the read class sent
  /// ahead of an older read and of overdue reads its deadline sent
  /// first. Near-zero cost while the tracer is off.
  /// `service_hist_name`, when non-empty, names a histogram recording
  /// every command's device service time in ns (always on, tracer or
  /// not — the attribution layer's view of data-disk service cost).
  void attach_obs(obs::Obs* obs, std::uint32_t tid, std::string_view depth_gauge_name,
                  std::string_view service_hist_name = {});

 private:
  /// One contiguous platter write carved out of a batched write-back after
  /// skip-filtering (skipped sub-ranges can leave holes in the envelope).
  struct BatchRun {
    disk::Lba lba = 0;
    std::uint32_t ranges = 0;  // survivors materialized into this run
    std::vector<std::byte> image;
  };
  /// A batched write-back mid-dispatch: its surviving sub-ranges and the
  /// contiguous runs still to be written. Held in a member (not captured
  /// in a self-referencing closure) so the run chain cannot leak.
  struct BatchState {
    std::vector<PendingIo::WbRange> survivors;
    std::vector<BatchRun> runs;
    std::size_t next = 0;
    int priority = 0;
    std::function<void(std::uint32_t, std::uint32_t)> on_dispatch;
  };

  void pump();
  /// Pump, then tell the idle callback if nothing is left.
  void resume();
  /// What the scheduler's pick knows of the device now.
  [[nodiscard]] HeadState head_state() const;
  /// A command ending at `last` left the device: the head sits at that
  /// sector's trailing edge.
  void reference(disk::Lba last);
  /// A command of class `priority` left the device: open its hold window.
  void left_device(int priority);
  /// True while the next request is of a worse class than the command
  /// that last left the device and its hold window is open; arms the
  /// timer that re-pumps at the window's end.
  bool holding();
  void update_depth();
  /// Skip-filter a popped batch, assemble its runs, and start writing.
  /// Returns false when every sub-range was skipped (nothing dispatched).
  bool begin_batch(PendingIo io);
  void issue_batch_run();

  disk::DiskDevice& device_;
  std::unique_ptr<IoScheduler> scheduler_;
  HeadPredictor predictor_;
  disk::SeekModel seek_;
  /// The worst single positioning: overhead + full-stroke seek + one
  /// revolution. A read queued longer goes first.
  sim::Duration read_deadline_;
  std::uint64_t next_seq_ = 0;
  bool dispatched_ = false;  // one of ours is on the device
  int hold_class_ = 0;       // class of the command that last left the device
  sim::TimePoint hold_until_{};  // worse classes wait until then
  sim::EventId hold_timer_;  // armed while a worse class is held
  std::unique_ptr<BatchState> batch_;  // non-null while a batch's runs are in flight
  std::function<void()> on_idle_;
  obs::Obs* obs_ = nullptr;
  std::uint32_t obs_tid_ = 0;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* skip_counter_ = nullptr;
  obs::Counter* hold_counter_ = nullptr;
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* reorder_counter_ = nullptr;
  obs::Counter* deadline_counter_ = nullptr;
  obs::Histogram* h_service_ = nullptr;  // per-command service time, ns
  /// Lifetime token for device completions, which can outlive the queue.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::io
