#include "io/standard_driver.hpp"

namespace trail::io {

namespace {
constexpr std::uint8_t kDataDiskMajor = 3;
}

DeviceId StandardDriver::add_device(disk::DiskDevice& device) {
  auto scheduler = scheduling_ == Scheduling::kClook ? make_clook_scheduler()
                                                     : make_fifo_scheduler();
  queues_.push_back(std::make_unique<DeviceQueue>(device, std::move(scheduler)));
  return DeviceId{kDataDiskMajor, static_cast<std::uint8_t>(queues_.size() - 1)};
}

std::size_t StandardDriver::index_of(DeviceId id) const {
  if (id.major() != kDataDiskMajor || id.minor() >= queues_.size())
    throw std::out_of_range("StandardDriver: unknown device");
  return id.minor();
}

void StandardDriver::submit_write(BlockAddr addr, std::uint32_t count,
                                  std::span<const std::byte> data, Completion cb) {
  if (count == 0) throw std::invalid_argument("StandardDriver: zero-sector write");
  if (data.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("StandardDriver: write data shorter than count sectors");
  PendingIo io;
  io.is_write = true;
  io.lba = addr.lba;
  io.count = count;
  io.data.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(count) * disk::kSectorSize);
  io.on_complete = std::move(cb);
  queues_.at(index_of(addr.device))->submit(std::move(io));
}

void StandardDriver::submit_read(BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                                 Completion cb) {
  if (count == 0) throw std::invalid_argument("StandardDriver: zero-sector read");
  if (out.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("StandardDriver: read buffer shorter than count sectors");
  PendingIo io;
  io.is_write = false;
  io.lba = addr.lba;
  io.count = count;
  io.out = out;
  io.on_complete = std::move(cb);
  queues_.at(index_of(addr.device))->submit(std::move(io));
}

void StandardDriver::drain(Completion cb) {
  // All writes are synchronous; once every queue is idle we are drained.
  auto all_idle = [this] {
    for (const auto& q : queues_)
      if (!q->idle()) return false;
    return true;
  };
  if (all_idle()) {
    if (cb) cb();
    return;
  }
  // Share the callback across queues; first idle notification that finds
  // everything idle fires it (then disarms).
  auto fired = std::make_shared<bool>(false);
  auto cb_shared = std::make_shared<Completion>(std::move(cb));
  for (auto& q : queues_) {
    q->set_idle_callback([this, all_idle, fired, cb_shared] {
      if (*fired || !all_idle()) return;
      *fired = true;
      // Keep the completion alive on the stack: disarming the queues
      // below destroys this very lambda (we are one of the idle
      // callbacks), so captures must not be touched afterwards.
      const auto cb_local = cb_shared;
      for (auto& qq : queues_) qq->set_idle_callback({});
      if (*cb_local) (*cb_local)();
    });
  }
}

}  // namespace trail::io
