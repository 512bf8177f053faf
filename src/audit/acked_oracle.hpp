// The acknowledged-write contract, as one regular register per sector:
// the oracle a crash test checks every read-back against.
//
// After a power cut and a remount, a read of a sector may return
//  - any write to it still unacknowledged at the cut (it may or may not
//    have reached the log);
//  - any acknowledged write to it that no acknowledged write submitted
//    after its ack has superseded; or
//  - when no write to it has been acknowledged since the last mount, the
//    value it read back at that mount.
// Submission order alone is too strict: two log disks (or two shards)
// acknowledge out of order, so two writes in flight together may land in
// either order. Anything else is a stale value (an older write or the
// post-mount value the contract no longer allows) or a lost one.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "disk/types.hpp"

namespace trail::audit {

class AckedOracle {
 public:
  /// (device index, LBA).
  using Sector = std::pair<std::uint16_t, disk::Lba>;
  enum class Verdict { kOk, kStale, kLost };

  /// A write of data.size() / kSectorSize sectors from `lba` was
  /// submitted; returns the ticket acked() takes.
  [[nodiscard]] std::size_t submitted(std::uint16_t device, disk::Lba lba,
                                      std::span<const std::byte> data);
  /// The write behind `ticket` was acknowledged.
  void acked(std::size_t ticket);

  /// Judge one sector as read back after a remount.
  [[nodiscard]] Verdict check(Sector sector, std::span<const std::byte> got) const;
  /// The remount's read-back starts a new epoch of the contract: `got`
  /// becomes the sector's post-mount value and its writes are forgotten.
  void mounted(Sector sector, std::span<const std::byte> got);

 private:
  struct Write {
    std::vector<std::byte> data;
    std::uint64_t submitted = 0;
    std::optional<std::uint64_t> acked;  // clock tick of the ack
  };
  struct History {
    std::optional<std::vector<std::byte>> base;  // post-mount value
    std::vector<std::pair<std::size_t, std::size_t>> writes;  // (ticket, sector offset)
  };

  std::uint64_t clock_ = 0;
  std::vector<Write> writes_;
  std::map<Sector, History> sectors_;
};

}  // namespace trail::audit
