// The self-describing on-disk log organization of §3.2.
//
// Two persistent structures live on the log disk:
//
//  * log_disk_header — one per disk (replicated): signature, epoch,
//    crash_var, plus (adjacent, as in the paper's format tool) the disk's
//    physical geometry so the driver and recovery can rebuild their
//    head-position model.
//
//  * write record — one per log write: a one-sector record header whose
//    first byte is 0xFF, followed by `batch_size` payload sectors whose
//    first byte is forced to 0x00 (the original byte is preserved in the
//    header's first_data_byte[] array). This first-byte discipline makes
//    any sector on the disk classifiable as header / payload / garbage
//    without bit stuffing, which is what lets recovery scan raw tracks.
//
// Extensions over the paper (documented in DESIGN.md): fixed-width integer
// fields, a CRC32 over the header sector, and a CRC32 over the escaped
// payload image so torn multi-sector writes are detected and dropped
// instead of replayed.
//
// Recovery and the offline verifier (fsck) read the log through the one
// record decoder (read_record) and the one §3.3 walk (ChainWalk) below, so
// fsck's live chain is by construction the set recovery replays.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "disk/geometry.hpp"
#include "disk/types.hpp"
#include "io/block.hpp"

namespace trail::core {

inline constexpr std::size_t kSignatureLen = 8;
inline constexpr char kLogDiskSignature[kSignatureLen + 1] = "TRAILLOG";
inline constexpr char kRecordSignature[kSignatureLen + 1] = "TRAILREC";

/// First byte of every record-header sector.
inline constexpr std::byte kHeaderFirstByte{0xFF};
/// Forced first byte of every payload sector on the log disk.
inline constexpr std::byte kDataFirstByte{0x00};

/// Maximum payload sectors described by one record header — sized so the
/// header serializes into a single 512-byte sector.
inline constexpr std::uint32_t kMaxTrailBatch = 32;

/// prev_sect value of the first record of an epoch (no predecessor).
inline constexpr std::uint32_t kNoPrevRecord = 0xFFFFFFFFu;

/// data_major sentinel marking a record entry as DIRECT LOG payload
/// (§6 future work: "applying track-based logging directly to database
/// logging rather than indirectly through the file system"). Such entries
/// carry client log bytes — data_lba holds the byte offset (cookie) into
/// the client's logical log — and are never written back to a data disk;
/// the client explicitly releases them once its own checkpoint makes them
/// unnecessary.
inline constexpr std::uint8_t kDirectLogMajor = 0xFF;

// ---- log pointers across multiple log disks ---------------------------------
// §5.1's final optimization employs several log disks so repositioning on
// one overlaps logging on another. Record pointers (prev_sect, log_head)
// then need to name a (log disk, LBA) pair: the top 4 bits carry the log
// unit index, the low 28 bits the LBA (ample for the <= 16M-sector log
// drives of the era). A single-log-disk deployment uses unit 0, keeping
// the encoding identical to the paper's plain LBA.

inline constexpr std::uint32_t kLogPtrUnitShift = 28;
inline constexpr std::uint32_t kLogPtrLbaMask = (1u << kLogPtrUnitShift) - 1;
inline constexpr std::uint32_t kMaxLogUnits = 15;  // unit 15 reserved for kNoPrevRecord

[[nodiscard]] constexpr std::uint32_t encode_log_ptr(std::uint8_t unit, std::uint32_t lba) {
  return static_cast<std::uint32_t>(unit) << kLogPtrUnitShift | (lba & kLogPtrLbaMask);
}
[[nodiscard]] constexpr std::uint8_t log_ptr_unit(std::uint32_t ptr) {
  return static_cast<std::uint8_t>(ptr >> kLogPtrUnitShift);
}
[[nodiscard]] constexpr std::uint32_t log_ptr_lba(std::uint32_t ptr) {
  return ptr & kLogPtrLbaMask;
}

/// The global log_disk_header (plus our mount-state interpretation):
/// crash_var == 1 means the previous session unmounted cleanly; 0 means a
/// mounted session is (or was, at a crash) in progress with nothing from
/// earlier epochs pending; 2 means the same, after the mount adopted
/// pending records of earlier epochs instead of writing them back.
/// resume_track is our extension: the ring position where the next mount
/// continues appending, so the temporal order of track stamps always
/// follows the circular track order — the invariant the recovery binary
/// search rests on — even across epochs.
struct LogDiskHeader {
  std::uint32_t epoch = 0;
  std::uint32_t crash_var = 1;
  std::uint32_t resume_track = 0;

  bool operator==(const LogDiskHeader&) const = default;
};

/// The oldest epoch whose records can still be pending under `hdr`: the
/// stamped epoch when its mount adopted nothing (crash_var 0), else 0.
[[nodiscard]] constexpr std::uint32_t oldest_pending_epoch(const LogDiskHeader& hdr) {
  return hdr.crash_var == 0 ? hdr.epoch : 0;
}

/// Totally ordered write-record identity across epochs: sequence_ids
/// restart at each mount, so temporal order is the (epoch, sequence_id)
/// pair packed into 64 bits.
[[nodiscard]] constexpr std::uint64_t record_key(std::uint32_t epoch, std::uint32_t sequence_id) {
  return static_cast<std::uint64_t>(epoch) << 32 | sequence_id;
}

/// One payload sector's bookkeeping inside a record header.
struct RecordEntry {
  std::uint8_t first_data_byte = 0;  // original first byte of the payload
  std::uint32_t log_lba = 0;         // payload sector's address on the log disk
  std::uint32_t data_lba = 0;        // target sector on the data disk
  std::uint8_t data_major = 0;       // target device
  std::uint8_t data_minor = 0;

  bool operator==(const RecordEntry&) const = default;
};

struct RecordHeader {
  std::uint32_t batch_size = 0;  // number of payload sectors following
  std::uint32_t epoch = 0;
  std::uint32_t sequence_id = 0;
  std::uint32_t prev_sect = kNoPrevRecord;  // log LBA of previous record header
  std::uint32_t log_head = 0;               // oldest live record header at append
  std::uint32_t payload_crc = 0;            // CRC32 of the escaped payload image
  std::vector<RecordEntry> entries;         // size == batch_size

  bool operator==(const RecordHeader&) const = default;
};

[[nodiscard]] constexpr std::uint64_t record_key(const RecordHeader& hdr) {
  return record_key(hdr.epoch, hdr.sequence_id);
}

// ---- log_disk_header codec -------------------------------------------------

void serialize_disk_header(const LogDiskHeader& hdr, std::span<std::byte> sector);
[[nodiscard]] std::optional<LogDiskHeader> parse_disk_header(std::span<const std::byte> sector);

// ---- geometry block codec (stored next to the disk header, §4.1) ----------

void serialize_geometry(const disk::Geometry& geom, double rpm, std::span<std::byte> sector);
struct GeometryBlock {
  disk::Geometry geometry;
  double rpm = 0;
};
[[nodiscard]] std::optional<GeometryBlock> parse_geometry(std::span<const std::byte> sector);

// ---- write record codec -----------------------------------------------------

/// Serialize a record header into one sector. entries.size() must equal
/// batch_size and be <= kMaxTrailBatch.
void serialize_record_header(const RecordHeader& hdr, std::span<std::byte> sector);

/// Parse and validate (first byte, signature, CRC). Returns nullopt for
/// anything that is not an intact record header.
[[nodiscard]] std::optional<RecordHeader> parse_record_header(std::span<const std::byte> sector);

/// Classification used by raw track scans.
enum class SectorKind { kRecordHeader, kPayload, kOther };
[[nodiscard]] SectorKind classify_sector(std::span<const std::byte> sector);

/// Escape a payload sector in place for logging: force the first byte to
/// kDataFirstByte and return the original byte.
[[nodiscard]] std::uint8_t escape_payload_sector(std::span<std::byte> sector);

/// Restore a payload sector's first byte (recovery / log read-back).
void unescape_payload_sector(std::span<std::byte> sector, std::uint8_t original_first_byte);

/// CRC over a full escaped payload image (batch_size sectors).
[[nodiscard]] std::uint32_t payload_image_crc(std::span<const std::byte> payload);

/// Single pass over a record's whole payload image (entries.size()
/// sectors): escape each sector's first byte into the matching entry's
/// first_data_byte and return the CRC32 of the escaped image. Equivalent
/// to escape_payload_sector per sector followed by payload_image_crc,
/// with the payload touched once instead of three times — the append
/// hot path's form.
[[nodiscard]] std::uint32_t escape_payload_image(std::span<std::byte> payload,
                                                 std::span<RecordEntry> entries);

// ---- reading the log (§3.2 record decode, §3.3 chain walk) ----------------

/// One record as read off the platter at its header sector.
struct RecordRead {
  RecordHeader header;
  /// The escaped payload image (batch_size sectors) inside the span;
  /// empty when the payload would run past the span's end.
  std::span<const std::byte> payload;
  /// The payload lies inside the span and matches header.payload_crc.
  bool intact = false;
};

/// Decode the record whose header sector starts `span`, which runs no
/// further than the end of the header's track: parse the header, bound the
/// payload, check its CRC. The writer builds every record inside one free
/// run of its track, so when the span reaches the track end (or holds
/// 1 + kMaxTrailBatch sectors) a payload running past it is not intact.
[[nodiscard]] std::optional<RecordRead> read_record(std::span<const std::byte> span);

/// The §3.3 walk from the youngest record back along prev_sect, stated
/// once. Start at the youngest record at or below the stamped epoch, torn
/// or not, and step() the record at next() until done(). Keys strictly
/// decrease along the walk. Torn records before the first intact one are
/// the torn tail (the crash's unacknowledged final write); the first
/// intact record's log_head is the bound. A prev_sect sentinel, or a
/// record older than the oldest pending epoch, ends the walk. The walk
/// reports what it sees and the caller decides: recovery throws on
/// corruption, fsck records a finding and keeps going.
class ChainWalk {
 public:
  enum class Verdict {
    kTornTail,   // torn, before the first intact record: dropped
    kLive,       // intact and pending: recovery replays it
    kTornLive,   // torn after an intact record: no legal crash does this
    kNotRecord,  // no record header at next(): the walk ends
    kKeyOrder,   // key not below the previous record's: the walk ends
    kExpired,    // older than the oldest pending epoch: the walk ends
  };

  ChainWalk(std::uint32_t start, std::uint32_t oldest_pending_epoch)
      : next_(start), oldest_pending_epoch_(oldest_pending_epoch) {}

  /// Feed the record at next(): its header and payload verdict, or
  /// nullptr when no intact record header is there.
  [[nodiscard]] Verdict step(const RecordHeader* header, bool intact);

  [[nodiscard]] bool done() const { return done_; }
  /// Log pointer of the record to feed next; meaningful while !done().
  [[nodiscard]] std::uint32_t next() const { return next_; }
  /// The walk met a prev_sect sentinel after an intact record without
  /// reaching that record's log_head bound.
  [[nodiscard]] bool bound_missed() const { return bound_missed_; }

 private:
  std::uint32_t next_;
  std::uint32_t oldest_pending_epoch_;
  std::optional<std::uint64_t> prev_key_;
  std::optional<std::uint32_t> bound_;
  bool done_ = false;
  bool bound_missed_ = false;
};

/// A track's stamp: the newest record_key among its record headers at or
/// below the stamped epoch, or nullopt when it holds none (unstamped).
using TrackStamp = std::optional<std::uint64_t>;

/// The ring invariant §3.3's locate rests on, stated once. On each log
/// disk, read clockwise from the track after the one holding the newest
/// record, the unstamped tracks form one leading run and the stamped
/// tracks' stamps increase. The writer keeps it: FIFO allocation stamps
/// the tracks in ring order, and a mount resumes right after the
/// youngest record it keeps (TrailDriver::mf_adopt). So, clockwise
/// from any stamped anchor, at_or_after() holds on one run of tracks
/// ending at the newest and fails everywhere after it: one rotated
/// binary search finds the newest track. fsck checks the invariant
/// (log.ring_order) by feeding every usable track in ring order, then
/// the first one again; only the step out of the newest track may break
/// the order.
class RingOrder {
 public:
  /// Locate's bisect predicate: `track` is stamped with a key at least
  /// the anchor's.
  [[nodiscard]] static constexpr bool at_or_after(TrackStamp track, std::uint64_t anchor) {
    return track && *track >= anchor;
  }

  /// `newest`: the disk's newest stamp.
  explicit RingOrder(TrackStamp newest) : newest_(newest) {}

  /// Feed the next track clockwise; false when the step into it breaks
  /// the invariant.
  [[nodiscard]] bool step(TrackStamp track);

 private:
  TrackStamp newest_;
  std::optional<TrackStamp> prev_;  // nullopt before the first track
};

}  // namespace trail::core
