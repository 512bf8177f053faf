// fsck.trail — the offline reader of the self-describing log (§3.2):
// verification of every on-disk invariant, reported through the
// trail::audit check registry (one named check per invariant class, with
// per-sector findings), plus a census of what the platter holds.
//
// The verifier reads the raw platter (SectorStore) directly: it is a
// maintenance tool that runs with the driver unmounted. It keeps going
// past the first violation and reports *every* one it can attribute —
// that is what makes it usable as a corruption tripwire in tests and CI.
// Records are decoded by core::read_record and the live chain is walked
// by core::ChainWalk, the same rules recovery runs, so the live chain is
// by construction the set recovery replays.
//
// Checks (see DESIGN.md §9 for the invariant catalogue):
//   log.disk_header     — replica parse + quorum agreement
//   log.geometry_block  — geometry replicas parse + match the device
//   log.sector_classes  — first-byte discipline over every written sector
//                         outside a record's payload extent
//   log.record_entries  — entry array / payload layout agreement; each
//                         payload lies within its record's track
//   log.payload_crc     — payload image CRCs by walk membership (on the
//                         chain = error, torn tail = warning, never
//                         visited = warning: track reuse is legal)
//   log.record_keys     — global (epoch, sequence_id) uniqueness
//   log.chain           — the ChainWalk from the youngest record at or
//                         below the stamped epoch: key-monotone, bounded
//                         by the first intact record's log_head
//   log.ring_order      — core::RingOrder over the usable tracks' stamps:
//                         the ring locate's binary search rests on; and
//                         an unstamped resume track follows the newest
//                         track, where locate's anchor rests
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/check.hpp"
#include "core/log_format.hpp"
#include "disk/disk_device.hpp"
#include "disk/geometry.hpp"
#include "disk/sector_store.hpp"

namespace trail::audit {

struct VerifyOptions {
  /// A crashed image may legally end in a torn final record (the power
  /// cut interrupted an unacknowledged physical write); report such a
  /// chain-tail tear as a warning instead of an error.
  bool allow_torn_tail = true;
};

/// One record header found on the platter, and where it lives.
struct LogRecord {
  core::RecordHeader header;
  disk::Lba header_lba = 0;
  disk::TrackId track = 0;
  bool payload_intact = false;  // payload CRC verified
};

/// What the verifier's single pass over the platter saw.
struct LogCensus {
  // Disk identity: the first intact header replica, and how many are.
  core::LogDiskHeader disk_header;
  int intact_header_replicas = 0;

  // Sector census over every written sector, by first-byte class.
  std::uint64_t sectors_written = 0;
  std::uint64_t record_headers = 0;
  std::uint64_t payload_sectors = 0;
  std::uint64_t other_sectors = 0;  // zeroed / garbage / disk metadata

  std::map<std::uint32_t, std::uint64_t> records_per_epoch;

  /// Per-track utilization of the stamped epoch's records: the fraction
  /// of each track's sectors they occupy (header + payload). Indexed by
  /// TrackId.
  std::vector<double> track_utilization;

  /// Records on the live chain (the log.chain walk from its first intact
  /// record on): the set recovery replays.
  std::uint32_t chain_length = 0;

  /// Every record header on the platter, ascending by record_key.
  std::vector<LogRecord> records;

  /// The newest record at or below the stamped epoch, torn or not (a torn
  /// youngest is the unacknowledged tail a crash cut short).
  std::optional<LogRecord> youngest;
};

/// Walk a log-disk image and check every §3.2 invariant. `geometry` must
/// be the disk's real geometry (the reserved replica tracks are derived
/// from it exactly as the format tool placed them). When `census` is
/// non-null it receives the pass's census.
[[nodiscard]] Report verify_log(const disk::SectorStore& store,
                                const disk::Geometry& geometry,
                                const VerifyOptions& options = {},
                                LogCensus* census = nullptr);

/// Convenience overload over a whole device.
[[nodiscard]] Report verify_log(const disk::DiskDevice& device,
                                const VerifyOptions& options = {},
                                LogCensus* census = nullptr);

/// Render a record for human consumption (log_inspector's tour).
[[nodiscard]] std::string describe(const LogRecord& record);

}  // namespace trail::audit
