#include "core/log_format.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/crc32.hpp"

namespace trail::core {

namespace {

// Little-endian field codec over a sector buffer.
class Writer {
 public:
  explicit Writer(std::span<std::byte> buf) : buf_(buf) {}

  void u8(std::uint8_t v) { byte(std::byte{v}); }
  void byte(std::byte v) {
    check(1);
    buf_[pos_++] = v;
  }
  void u32(std::uint32_t v) {
    check(4);
    for (int i = 0; i < 4; ++i) buf_[pos_++] = std::byte(v >> (8 * i) & 0xFF);
  }
  void u64(std::uint64_t v) {
    check(8);
    for (int i = 0; i < 8; ++i) buf_[pos_++] = std::byte(v >> (8 * i) & 0xFF);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const void* p, std::size_t n) {
    check(n);
    std::memcpy(buf_.data() + pos_, p, n);
    pos_ += n;
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  // Overflow-safe: pos_ <= buf_.size() always holds, so the subtraction
  // cannot wrap, unlike the naive `pos_ + n > size` form.
  void check(std::size_t n) const {
    if (n > buf_.size() - pos_) throw std::length_error("log_format: sector overflow");
  }
  std::span<std::byte> buf_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(byte()); }
  std::byte byte() {
    check(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    check(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    check(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  void bytes(void* p, std::size_t n) {
    check(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

 private:
  void check(std::size_t n) const {
    if (n > buf_.size() - pos_) throw std::length_error("log_format: sector underflow");
  }
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

void require_sector(std::size_t size) {
  if (size < disk::kSectorSize) throw std::invalid_argument("log_format: buffer < one sector");
}

// Header-sector CRC convention: the CRC field occupies a fixed offset; it
// is computed over the whole sector with that field zeroed. Computed
// incrementally over [0, crc_offset), four zero bytes, and the remainder
// — no sector copy. Must never be handed a short span: the parse_* entry
// points return nullopt before reaching here, but a direct caller with a
// truncated buffer would otherwise read past the end.
std::uint32_t sector_crc_excluding(std::span<const std::byte> sector, std::size_t crc_offset) {
  if (sector.size() < disk::kSectorSize || crc_offset > disk::kSectorSize - 4)
    throw std::length_error("log_format: crc window out of bounds");
  static constexpr std::byte kZeros[4]{};
  Crc32 crc;
  crc.update(sector.first(crc_offset));
  crc.update(kZeros);
  crc.update(sector.subspan(crc_offset + 4, disk::kSectorSize - crc_offset - 4));
  return crc.value();
}

void put_crc(std::span<std::byte> sector, std::size_t crc_offset) {
  const std::uint32_t c = sector_crc_excluding(sector, crc_offset);
  for (int i = 0; i < 4; ++i) sector[crc_offset + i] = std::byte(c >> (8 * i) & 0xFF);
}

bool check_crc(std::span<const std::byte> sector, std::size_t crc_offset) {
  const std::uint32_t computed = sector_crc_excluding(sector, crc_offset);  // bounds-checked
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(sector[crc_offset + i]) << (8 * i);
  return stored == computed;
}

// Byte layout offsets for the disk header sector.
//  [0]     marker 0xFE (distinct from both record-header and payload bytes)
//  [1..8]  signature
//  [9..12] epoch  [13..16] crash_var  [17..20] resume_track  [21..24] crc
constexpr std::byte kDiskHeaderFirstByte{0xFE};
constexpr std::size_t kDiskHeaderCrcOffset = 21;

// Record header layout:
//  [0] 0xFF  [1..8] signature  [9..12] batch_size  [13..16] epoch
//  [17..20] sequence_id  [21..24] prev_sect  [25..28] log_head
//  [29..32] payload_crc  [33..36] header crc  [37..] entries (11 B each)
constexpr std::size_t kRecordCrcOffset = 33;
constexpr std::size_t kRecordEntriesOffset = 37;
constexpr std::size_t kEntrySize = 11;
static_assert(kRecordEntriesOffset + kEntrySize * kMaxTrailBatch <= disk::kSectorSize,
              "record header must fit in one sector");

// Geometry block layout:
//  [0] marker 0xFD  [1..8] signature  [9] zone_count  [10..13] surfaces
//  [14..21] rpm (f64)  [22..29] skew_fraction (f64)  [30..33] crc
//  [34..]  zones: (cylinder_count u32, sectors_per_track u32) each
constexpr std::byte kGeometryFirstByte{0xFD};
constexpr std::size_t kGeometryCrcOffset = 30;
constexpr std::size_t kGeometryZonesOffset = 34;
constexpr std::size_t kMaxZones = (disk::kSectorSize - kGeometryZonesOffset) / 8;

}  // namespace

void serialize_disk_header(const LogDiskHeader& hdr, std::span<std::byte> sector) {
  require_sector(sector.size());
  std::memset(sector.data(), 0, disk::kSectorSize);
  Writer w(sector);
  w.byte(kDiskHeaderFirstByte);
  w.bytes(kLogDiskSignature, kSignatureLen);
  w.u32(hdr.epoch);
  w.u32(hdr.crash_var);
  w.u32(hdr.resume_track);
  put_crc(sector, kDiskHeaderCrcOffset);
}

std::optional<LogDiskHeader> parse_disk_header(std::span<const std::byte> sector) {
  if (sector.size() < disk::kSectorSize) return std::nullopt;
  if (sector[0] != kDiskHeaderFirstByte) return std::nullopt;
  if (std::memcmp(sector.data() + 1, kLogDiskSignature, kSignatureLen) != 0) return std::nullopt;
  if (!check_crc(sector, kDiskHeaderCrcOffset)) return std::nullopt;
  Reader r(sector.subspan(1 + kSignatureLen));
  LogDiskHeader hdr;
  hdr.epoch = r.u32();
  hdr.crash_var = r.u32();
  hdr.resume_track = r.u32();
  return hdr;
}

void serialize_geometry(const disk::Geometry& geom, double rpm, std::span<std::byte> sector) {
  require_sector(sector.size());
  if (geom.zones().size() > kMaxZones)
    throw std::invalid_argument("serialize_geometry: too many zones for one sector");
  std::memset(sector.data(), 0, disk::kSectorSize);
  Writer w(sector);
  w.byte(kGeometryFirstByte);
  w.bytes(kLogDiskSignature, kSignatureLen);
  w.u8(static_cast<std::uint8_t>(geom.zones().size()));
  w.u32(geom.surfaces());
  w.f64(rpm);
  w.f64(geom.skew_fraction());
  w.u32(0);  // crc placeholder
  for (const disk::Zone& z : geom.zones()) {
    w.u32(z.cylinder_count);
    w.u32(z.sectors_per_track);
  }
  put_crc(sector, kGeometryCrcOffset);
}

std::optional<GeometryBlock> parse_geometry(std::span<const std::byte> sector) {
  if (sector.size() < disk::kSectorSize) return std::nullopt;
  if (sector[0] != kGeometryFirstByte) return std::nullopt;
  if (std::memcmp(sector.data() + 1, kLogDiskSignature, kSignatureLen) != 0) return std::nullopt;
  if (!check_crc(sector, kGeometryCrcOffset)) return std::nullopt;
  Reader r(sector.subspan(1 + kSignatureLen));
  const std::uint8_t zone_count = r.u8();
  const std::uint32_t surfaces = r.u32();
  const double rpm = r.f64();
  const double skew = r.f64();
  (void)r.u32();  // crc
  if (zone_count == 0 || zone_count > kMaxZones) return std::nullopt;
  std::vector<disk::Zone> zones(zone_count);
  for (auto& z : zones) {
    z.cylinder_count = r.u32();
    z.sectors_per_track = r.u32();
  }
  try {
    return GeometryBlock{disk::Geometry(surfaces, std::move(zones), skew), rpm};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void serialize_record_header(const RecordHeader& hdr, std::span<std::byte> sector) {
  require_sector(sector.size());
  if (hdr.entries.size() != hdr.batch_size)
    throw std::invalid_argument("serialize_record_header: entries/batch_size mismatch");
  if (hdr.batch_size == 0 || hdr.batch_size > kMaxTrailBatch)
    throw std::invalid_argument("serialize_record_header: batch_size out of range");
  std::memset(sector.data(), 0, disk::kSectorSize);
  Writer w(sector);
  w.byte(kHeaderFirstByte);
  w.bytes(kRecordSignature, kSignatureLen);
  w.u32(hdr.batch_size);
  w.u32(hdr.epoch);
  w.u32(hdr.sequence_id);
  w.u32(hdr.prev_sect);
  w.u32(hdr.log_head);
  w.u32(hdr.payload_crc);
  w.u32(0);  // header crc placeholder
  for (const RecordEntry& e : hdr.entries) {
    w.u8(e.first_data_byte);
    w.u32(e.log_lba);
    w.u32(e.data_lba);
    w.u8(e.data_major);
    w.u8(e.data_minor);
  }
  put_crc(sector, kRecordCrcOffset);
}

std::optional<RecordHeader> parse_record_header(std::span<const std::byte> sector) {
  if (sector.size() < disk::kSectorSize) return std::nullopt;
  if (sector[0] != kHeaderFirstByte) return std::nullopt;
  if (std::memcmp(sector.data() + 1, kRecordSignature, kSignatureLen) != 0) return std::nullopt;
  if (!check_crc(sector, kRecordCrcOffset)) return std::nullopt;
  Reader r(sector.subspan(1 + kSignatureLen));
  RecordHeader hdr;
  hdr.batch_size = r.u32();
  hdr.epoch = r.u32();
  hdr.sequence_id = r.u32();
  hdr.prev_sect = r.u32();
  hdr.log_head = r.u32();
  hdr.payload_crc = r.u32();
  (void)r.u32();  // header crc
  if (hdr.batch_size == 0 || hdr.batch_size > kMaxTrailBatch) return std::nullopt;
  hdr.entries.resize(hdr.batch_size);
  for (RecordEntry& e : hdr.entries) {
    e.first_data_byte = r.u8();
    e.log_lba = r.u32();
    e.data_lba = r.u32();
    e.data_major = r.u8();
    e.data_minor = r.u8();
  }
  return hdr;
}

SectorKind classify_sector(std::span<const std::byte> sector) {
  if (sector.empty()) return SectorKind::kOther;
  if (sector[0] == kHeaderFirstByte)
    return parse_record_header(sector) ? SectorKind::kRecordHeader : SectorKind::kOther;
  if (sector[0] == kDataFirstByte) return SectorKind::kPayload;
  return SectorKind::kOther;
}

std::uint8_t escape_payload_sector(std::span<std::byte> sector) {
  require_sector(sector.size());
  const auto original = static_cast<std::uint8_t>(sector[0]);
  sector[0] = kDataFirstByte;
  return original;
}

void unescape_payload_sector(std::span<std::byte> sector, std::uint8_t original_first_byte) {
  require_sector(sector.size());
  sector[0] = std::byte{original_first_byte};
}

std::uint32_t payload_image_crc(std::span<const std::byte> payload) { return crc32(payload); }

std::uint32_t escape_payload_image(std::span<std::byte> payload,
                                   std::span<RecordEntry> entries) {
  if (payload.size() != entries.size() * disk::kSectorSize)
    throw std::invalid_argument("escape_payload_image: payload/entries size mismatch");
  Crc32 crc;
  for (std::size_t s = 0; s < entries.size(); ++s) {
    const std::span<std::byte> sector = payload.subspan(s * disk::kSectorSize, disk::kSectorSize);
    entries[s].first_data_byte = static_cast<std::uint8_t>(sector[0]);
    sector[0] = kDataFirstByte;
    crc.update(sector);
  }
  return crc.value();
}

std::optional<RecordRead> read_record(std::span<const std::byte> span) {
  auto hdr = parse_record_header(span);
  if (!hdr) return std::nullopt;
  RecordRead rec{std::move(*hdr), {}, false};
  const std::size_t bytes = static_cast<std::size_t>(rec.header.batch_size) * disk::kSectorSize;
  if (span.size() - disk::kSectorSize >= bytes) {
    rec.payload = span.subspan(disk::kSectorSize, bytes);
    rec.intact = crc32(rec.payload) == rec.header.payload_crc;
  }
  return rec;
}

ChainWalk::Verdict ChainWalk::step(const RecordHeader* header, bool intact) {
  const auto end = [this](Verdict v) {
    done_ = true;
    return v;
  };
  if (header == nullptr) return end(Verdict::kNotRecord);
  const std::uint64_t key = record_key(*header);
  if (prev_key_ && key >= *prev_key_) return end(Verdict::kKeyOrder);
  if (header->epoch < oldest_pending_epoch_) return end(Verdict::kExpired);
  prev_key_ = key;
  Verdict verdict = Verdict::kLive;
  if (!intact)
    verdict = bound_ ? Verdict::kTornLive : Verdict::kTornTail;
  else if (!bound_)
    bound_ = header->log_head;
  if (bound_ && next_ == *bound_) {
    done_ = true;  // reached the oldest live record
  } else if (header->prev_sect == kNoPrevRecord) {
    done_ = true;  // first record of its epoch
    bound_missed_ = bound_.has_value();
  } else {
    next_ = header->prev_sect;
  }
  return verdict;
}

bool RingOrder::step(TrackStamp track) {
  const std::optional<TrackStamp> from = std::exchange(prev_, track);
  // Out of an unstamped track anything goes; out of a stamped one only a
  // greater stamp, except at the newest track, where the ring wraps.
  return !from || !*from || *from == newest_ || (track && *track > **from);
}

}  // namespace trail::core
