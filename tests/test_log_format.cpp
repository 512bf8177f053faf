#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/log_format.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"

namespace trail::core {
namespace {

using disk::kSectorSize;
using disk::SectorBuf;

TEST(Crc32, KnownVectors) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(crc32(std::span<const std::byte>(reinterpret_cast<const std::byte*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::byte>{}), 0u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x3C});
  const std::uint32_t c = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), c);
}

// Shift-register reference: the polynomial definition itself, no tables.
// Every production tier must match this bit-for-bit.
std::uint32_t crc32_bitwise(std::span<const std::byte> data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c ^= std::to_integer<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) != 0 ? 0xEDB88320u : 0u);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Property, AllTiersMatchBitwiseReference) {
  // Random lengths (biased to cover the hw tier's >= 64-byte bulk
  // threshold and its %16 tail peeling), random base alignments, random
  // seeds. The dispatched entry point and each forced tier must all
  // agree with the shift-register reference.
  sim::Rng rng(2024);
  std::vector<std::byte> pool(4096 + 8);
  for (auto& b : pool) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  for (int trial = 0; trial < 400; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, trial % 2 == 0 ? 96 : 4096));
    const auto align = static_cast<std::size_t>(rng.uniform(0, 7));
    const auto seed = static_cast<std::uint32_t>(rng.next());
    const std::span<const std::byte> data(pool.data() + align, len);
    const std::uint32_t want = crc32_bitwise(data, seed);
    EXPECT_EQ(crc32(data, seed), want) << "len=" << len << " align=" << align;
    EXPECT_EQ(detail::crc32_with(CrcImpl::kTable, data, seed), want);
    EXPECT_EQ(detail::crc32_with(CrcImpl::kSliced, data, seed), want);
    EXPECT_EQ(detail::crc32_with(CrcImpl::kHw, data, seed), want);
  }
}

TEST(Crc32Property, ChainingAndAccumulatorAgree) {
  // crc32(a || b) == crc32(b, crc32(a)), and the incremental accumulator
  // over arbitrary split points equals the one-shot CRC.
  sim::Rng rng(7);
  std::vector<std::byte> data(1500);
  for (auto& b : data) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  const std::uint32_t whole = crc32(data);
  for (int trial = 0; trial < 50; ++trial) {
    const auto cut = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(data.size())));
    const std::span<const std::byte> a(data.data(), cut);
    const std::span<const std::byte> b(data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc32(b, crc32(a)), whole);
    Crc32 acc;
    std::size_t off = 0;
    while (off < data.size()) {
      const auto step = std::min<std::size_t>(
          data.size() - off, static_cast<std::size_t>(rng.uniform(0, 200)));
      acc.update({data.data() + off, step});
      off += step;
    }
    EXPECT_EQ(acc.value(), whole);
  }
}

TEST(Crc32Property, DispatchReportsConsistentTier) {
  const CrcImpl impl = crc32_impl();
  const std::string name = crc32_impl_name();
  switch (impl) {
    case CrcImpl::kTable:
      EXPECT_EQ(name, "table");
      break;
    case CrcImpl::kSliced:
      EXPECT_EQ(name, "sliced");
      break;
    case CrcImpl::kHw:
      EXPECT_EQ(name, "hw");
      break;
  }
}

TEST(DiskHeader, RoundTrip) {
  SectorBuf sector{};
  const LogDiskHeader hdr{7, 0, 123};
  serialize_disk_header(hdr, sector);
  const auto parsed = parse_disk_header(sector);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, hdr);
}

TEST(DiskHeader, RejectsCorruption) {
  SectorBuf sector{};
  serialize_disk_header(LogDiskHeader{1, 1, 0}, sector);
  SectorBuf bad = sector;
  bad[10] ^= std::byte{0xFF};
  EXPECT_FALSE(parse_disk_header(bad).has_value());
  bad = sector;
  bad[1] = std::byte{'X'};  // signature
  EXPECT_FALSE(parse_disk_header(bad).has_value());
  SectorBuf zero{};
  EXPECT_FALSE(parse_disk_header(zero).has_value());
}

TEST(GeometryBlock, RoundTrip) {
  const disk::DiskProfile p = disk::st41601n();
  SectorBuf sector{};
  serialize_geometry(p.geometry, p.rpm, sector);
  const auto parsed = parse_geometry(sector);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->geometry.surfaces(), p.geometry.surfaces());
  EXPECT_EQ(parsed->geometry.cylinders(), p.geometry.cylinders());
  EXPECT_EQ(parsed->geometry.total_sectors(), p.geometry.total_sectors());
  EXPECT_DOUBLE_EQ(parsed->geometry.skew_fraction(), p.geometry.skew_fraction());
  EXPECT_DOUBLE_EQ(parsed->rpm, p.rpm);
  ASSERT_EQ(parsed->geometry.zones().size(), p.geometry.zones().size());
  for (std::size_t i = 0; i < p.geometry.zones().size(); ++i) {
    EXPECT_EQ(parsed->geometry.zones()[i].cylinder_count, p.geometry.zones()[i].cylinder_count);
    EXPECT_EQ(parsed->geometry.zones()[i].sectors_per_track,
              p.geometry.zones()[i].sectors_per_track);
  }
}

TEST(GeometryBlock, RejectsCorruption) {
  const disk::DiskProfile p = disk::small_test_disk();
  SectorBuf sector{};
  serialize_geometry(p.geometry, p.rpm, sector);
  sector[40] ^= std::byte{0x01};
  EXPECT_FALSE(parse_geometry(sector).has_value());
}

RecordHeader sample_record(std::uint32_t batch) {
  RecordHeader hdr;
  hdr.batch_size = batch;
  hdr.epoch = 3;
  hdr.sequence_id = 42;
  hdr.prev_sect = 1000;
  hdr.log_head = 900;
  hdr.payload_crc = 0xDEADBEEF;
  for (std::uint32_t i = 0; i < batch; ++i) {
    RecordEntry e;
    e.first_data_byte = static_cast<std::uint8_t>(i * 7 + 1);
    e.log_lba = 2000 + i;
    e.data_lba = 5000 + i * 3;
    e.data_major = 3;
    e.data_minor = static_cast<std::uint8_t>(i % 2);
    hdr.entries.push_back(e);
  }
  return hdr;
}

TEST(RecordHeaderCodec, RoundTripAllBatchSizes) {
  for (std::uint32_t batch = 1; batch <= kMaxTrailBatch; ++batch) {
    SectorBuf sector{};
    const RecordHeader hdr = sample_record(batch);
    serialize_record_header(hdr, sector);
    EXPECT_EQ(sector[0], kHeaderFirstByte);
    const auto parsed = parse_record_header(sector);
    ASSERT_TRUE(parsed.has_value()) << "batch " << batch;
    EXPECT_EQ(*parsed, hdr);
  }
}

TEST(RecordHeaderCodec, RejectsBadInput) {
  SectorBuf sector{};
  serialize_record_header(sample_record(4), sector);
  SectorBuf bad = sector;
  bad[20] ^= std::byte{0x40};
  EXPECT_FALSE(parse_record_header(bad).has_value());
  bad = sector;
  bad[0] = std::byte{0x00};
  EXPECT_FALSE(parse_record_header(bad).has_value());

  RecordHeader invalid = sample_record(2);
  invalid.batch_size = 3;  // entries mismatch
  EXPECT_THROW(serialize_record_header(invalid, sector), std::invalid_argument);
  RecordHeader zero = sample_record(1);
  zero.entries.clear();
  zero.batch_size = 0;
  EXPECT_THROW(serialize_record_header(zero, sector), std::invalid_argument);
}

TEST(RecordHeaderCodec, RandomSectorAlmostNeverParses) {
  sim::Rng rng(1);
  SectorBuf sector{};
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& b : sector) b = std::byte(static_cast<std::uint8_t>(rng.next()));
    EXPECT_FALSE(parse_record_header(sector).has_value());
  }
}

TEST(Escaping, HeaderAndPayloadAreDistinguishable) {
  // The core self-description property (§3.2): any payload sector, even
  // one whose content is an exact record-header image, is classified as
  // payload after escaping.
  SectorBuf header_image{};
  serialize_record_header(sample_record(8), header_image);
  EXPECT_EQ(classify_sector(header_image), SectorKind::kRecordHeader);

  SectorBuf payload = header_image;  // adversarial payload
  const std::uint8_t original = escape_payload_sector(payload);
  EXPECT_EQ(original, 0xFF);
  EXPECT_EQ(payload[0], kDataFirstByte);
  EXPECT_EQ(classify_sector(payload), SectorKind::kPayload);

  unescape_payload_sector(payload, original);
  EXPECT_EQ(std::memcmp(payload.data(), header_image.data(), kSectorSize), 0);
}

TEST(Escaping, RoundTripsRandomPayloads) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    SectorBuf sector{};
    for (auto& b : sector) b = std::byte(static_cast<std::uint8_t>(rng.next()));
    const SectorBuf original = sector;
    const std::uint8_t first = escape_payload_sector(sector);
    EXPECT_EQ(sector[0], kDataFirstByte);
    EXPECT_NE(classify_sector(sector), SectorKind::kRecordHeader);
    unescape_payload_sector(sector, first);
    EXPECT_EQ(sector, original);
  }
}

TEST(RecordKey, OrdersAcrossEpochs) {
  EXPECT_LT(record_key(1, 0xFFFFFFFFu), record_key(2, 0));
  EXPECT_LT(record_key(2, 5), record_key(2, 6));
  RecordHeader hdr = sample_record(1);
  EXPECT_EQ(record_key(hdr), record_key(hdr.epoch, hdr.sequence_id));
}

/// Feed one disk's per-track stamps (ring order) through RingOrder and
/// return the indices of the tracks whose step in breaks the invariant.
std::vector<std::size_t> ring_breaks(const std::vector<TrackStamp>& ring) {
  TrackStamp newest;
  for (const TrackStamp& t : ring)
    if (t && (!newest || *t > *newest)) newest = t;
  RingOrder order(newest);
  std::vector<std::size_t> breaks;
  for (std::size_t i = 0; i < ring.size(); ++i)
    if (!order.step(ring[i])) breaks.push_back(i);
  if (!ring.empty() && !order.step(ring.front())) breaks.push_back(0);  // close the ring
  return breaks;
}

TEST(RingOrder, LeadingUnstampedRunAndRisingStampsPass) {
  const TrackStamp u;
  EXPECT_TRUE(ring_breaks({}).empty());
  EXPECT_TRUE(ring_breaks({u, u, u}).empty());  // freshly formatted
  EXPECT_TRUE(ring_breaks({5, 7, 9, u, u}).empty());  // not yet wrapped
  EXPECT_TRUE(ring_breaks({u, 5, 7, 9}).empty());
  EXPECT_TRUE(ring_breaks({12, 3, 5, 7, 9}).empty());  // wrapped: 12 is newest
  EXPECT_TRUE(ring_breaks({9, u, u, 3, 5, 7}).empty());  // the run follows the newest
  EXPECT_TRUE(ring_breaks({4}).empty());
}

TEST(RingOrder, UnstampedTrackInsideTheArcFails) {
  const TrackStamp u;
  EXPECT_EQ(ring_breaks({5, u, 7, 9, u}), std::vector<std::size_t>{1});
  // Wrapped ring with a hole: the step out of 3 lands on nothing.
  EXPECT_EQ(ring_breaks({12, 3, u, 7, 9}), std::vector<std::size_t>{2});
  // Two unstamped runs: the one not after the newest is the break.
  EXPECT_EQ(ring_breaks({u, 3, 5, u, 7, 9}), std::vector<std::size_t>{3});
}

TEST(RingOrder, KeyDipFails) {
  const TrackStamp u;
  EXPECT_EQ(ring_breaks({5, 3, 7, 9}), std::vector<std::size_t>{1});
  EXPECT_EQ(ring_breaks({12, 3, 5, 4, 9}), std::vector<std::size_t>{3});
  // A stale track from an older lap ahead of the unstamped run: the run
  // is no longer leading, so the step into it breaks.
  EXPECT_EQ(ring_breaks({u, 6, 7, 9, 2}), std::vector<std::size_t>{0});
  // The wrap from the last track back to the first is checked too.
  EXPECT_EQ(ring_breaks({3, 5, 9, 4}), std::vector<std::size_t>{0});
}

TEST(RingOrder, AtOrAfterNeedsAStampAtLeastTheAnchors) {
  EXPECT_TRUE(RingOrder::at_or_after(7, 7));
  EXPECT_TRUE(RingOrder::at_or_after(9, 7));
  EXPECT_FALSE(RingOrder::at_or_after(5, 7));
  EXPECT_FALSE(RingOrder::at_or_after(std::nullopt, 0));
}

TEST(ClassifySector, OtherBytes) {
  SectorBuf sector{};
  sector[0] = std::byte{0x7F};
  EXPECT_EQ(classify_sector(sector), SectorKind::kOther);
  EXPECT_EQ(classify_sector({}), SectorKind::kOther);
}

TEST(Escaping, SinglePassImageMatchesPerSectorPath) {
  // escape_payload_image (one pass, CRC folded in) must be byte- and
  // CRC-identical to the legacy two-pass path: escape each sector, then
  // payload_image_crc over the escaped image.
  sim::Rng rng(123);
  for (int batch : {1, 3, 8}) {
    std::vector<std::byte> image(static_cast<std::size_t>(batch) * kSectorSize);
    for (auto& b : image) b = std::byte(static_cast<std::uint8_t>(rng.next()));
    std::vector<std::byte> reference = image;

    std::vector<RecordEntry> legacy(static_cast<std::size_t>(batch));
    for (int s = 0; s < batch; ++s)
      legacy[static_cast<std::size_t>(s)].first_data_byte = escape_payload_sector(
          std::span<std::byte>(reference.data() + static_cast<std::size_t>(s) * kSectorSize,
                               kSectorSize));
    const std::uint32_t legacy_crc = payload_image_crc(reference);

    std::vector<RecordEntry> entries(static_cast<std::size_t>(batch));
    EXPECT_EQ(escape_payload_image(image, entries), legacy_crc);
    EXPECT_EQ(image, reference);
    for (int s = 0; s < batch; ++s)
      EXPECT_EQ(entries[static_cast<std::size_t>(s)].first_data_byte,
                legacy[static_cast<std::size_t>(s)].first_data_byte);
  }
  std::vector<std::byte> image(kSectorSize);
  std::vector<RecordEntry> wrong(2);
  EXPECT_THROW(static_cast<void>(escape_payload_image(image, wrong)), std::invalid_argument);
}

// On-disk format lock-in: an image committed before the codec overhaul
// must parse losslessly AND re-serialize to the exact same bytes with
// the current codec. If this fails, the change broke compatibility with
// existing log disks.
TEST(GoldenImage, PrePrLogImageRoundTripsByteExact) {
  const std::string path = std::string(TRAIL_TEST_DATA_DIR) + "/golden_log_image.bin";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::byte> golden(8 * kSectorSize);
  in.read(reinterpret_cast<char*>(golden.data()), static_cast<std::streamsize>(golden.size()));
  ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(golden.size()));

  auto sec = [&](int i) {
    return std::span<const std::byte>(golden.data() + static_cast<std::size_t>(i) * kSectorSize,
                                      kSectorSize);
  };

  // Parse every sector with the current codec.
  const auto disk_hdr = parse_disk_header(sec(0));
  ASSERT_TRUE(disk_hdr.has_value());
  EXPECT_EQ(*disk_hdr, (LogDiskHeader{7, 0, 3}));

  const auto geom = parse_geometry(sec(1));
  ASSERT_TRUE(geom.has_value());
  EXPECT_EQ(geom->geometry.surfaces(), 2u);
  EXPECT_DOUBLE_EQ(geom->rpm, 5400.0);

  const auto rec = parse_record_header(sec(2));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->batch_size, 5u);
  EXPECT_EQ(rec->epoch, 7u);
  EXPECT_EQ(rec->sequence_id, 42u);
  ASSERT_EQ(rec->entries.size(), 5u);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(rec->entries[s].log_lba, 200 + s);
    EXPECT_EQ(rec->entries[s].data_lba, 5000 + 3 * s);
    EXPECT_EQ(rec->entries[s].data_major, 1);
    EXPECT_EQ(rec->entries[s].data_minor, s);
  }

  // Escaped payload checks out against the stored CRC, and unescaping
  // recovers the original generator pattern.
  const std::span<const std::byte> payload(golden.data() + 3 * kSectorSize, 5 * kSectorSize);
  EXPECT_EQ(payload_image_crc(payload), rec->payload_crc);
  for (std::uint32_t s = 0; s < 5; ++s) {
    SectorBuf plain{};
    std::memcpy(plain.data(), golden.data() + (3 + s) * kSectorSize, kSectorSize);
    unescape_payload_sector(plain, rec->entries[s].first_data_byte);
    for (std::size_t j = 0; j < kSectorSize; ++j)
      ASSERT_EQ(plain[j], std::byte(static_cast<std::uint8_t>((s * 37 + j * 11) & 0xFF)))
          << "sector " << s << " byte " << j;
  }

  // Re-serialize everything with the current encoder: byte-exact.
  std::vector<std::byte> rebuilt(8 * kSectorSize);
  auto out = [&](int i) {
    return std::span<std::byte>(rebuilt.data() + static_cast<std::size_t>(i) * kSectorSize,
                                kSectorSize);
  };
  serialize_disk_header(*disk_hdr, out(0));
  serialize_geometry(geom->geometry, geom->rpm, out(1));
  for (std::uint32_t s = 0; s < 5; ++s) {
    auto p = out(static_cast<int>(3 + s));
    for (std::size_t j = 0; j < kSectorSize; ++j)
      p[j] = std::byte(static_cast<std::uint8_t>((s * 37 + j * 11) & 0xFF));
  }
  RecordHeader hdr = *rec;
  std::span<std::byte> payload_out(rebuilt.data() + 3 * kSectorSize, 5 * kSectorSize);
  hdr.payload_crc = escape_payload_image(payload_out, hdr.entries);
  serialize_record_header(hdr, out(2));
  EXPECT_EQ(rebuilt, golden);
}

}  // namespace
}  // namespace trail::core
