// trail::audit tests: the Check/Report substrate, the offline log
// verifier (fsck.trail) and its census against clean and deliberately
// corrupted images, the hardened log_format bounds checks, and the
// runtime quiesce-point audits on the driver and the database engine.
//
// The corruption table bit-flips every §3.2 header field class — magic
// byte, signature, epoch, prev_sect, log_head, entry array, payload — and
// asserts both that verify_log attributes the damage to the right check
// and that recovery rejects the image cleanly (a thrown
// std::runtime_error or a reduced record count; never silent adoption).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "audit/check.hpp"
#include "audit/log_verifier.hpp"
#include "core/log_format.hpp"
#include "db/database.hpp"
#include "io/standard_driver.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using audit::Finding;
using audit::LogCensus;
using audit::LogRecord;
using audit::Report;
using audit::Severity;
using audit::VerifyOptions;

// ---------------------------------------------------------------- Check

TEST(AuditCheck, CountsAndFindings) {
  Report report;
  audit::Check& c = report.check("demo");
  c.pass(3);
  c.fail("broken", 17);
  c.fail("iffy", Finding::kNoLba, Severity::kWarning);
  EXPECT_TRUE(c.require(true, "holds"));
  EXPECT_FALSE(c.require(false, "does not hold", 4));

  EXPECT_EQ(c.passes(), 4u);
  EXPECT_EQ(c.errors(), 2u);
  EXPECT_EQ(c.warnings(), 1u);
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_errors(), 2u);
  EXPECT_EQ(report.total_warnings(), 1u);
  ASSERT_EQ(c.findings().size(), 3u);
  EXPECT_EQ(c.findings()[0].lba, 17u);

  const std::string dump = report.to_string();
  EXPECT_NE(dump.find("demo: FAIL"), std::string::npos);
  EXPECT_NE(dump.find("@lba 17"), std::string::npos);
  // Same-named check resolves to the same instance.
  EXPECT_EQ(&report.check("demo"), &c);
}

TEST(AuditCheck, FindingStorageIsBounded) {
  Report report;
  audit::Check& c = report.check("flood");
  for (int i = 0; i < 100; ++i) c.fail("finding", static_cast<std::uint64_t>(i));
  EXPECT_EQ(c.errors(), 100u);
  EXPECT_EQ(c.findings().size(), audit::Check::kMaxStoredFindings);
  EXPECT_NE(report.to_string().find("further findings not stored"), std::string::npos);
}

TEST(AuditCheck, RecordsToMetrics) {
  Report report;
  report.check("x").pass(5);
  report.check("x").fail("bad");
  obs::MetricsRegistry metrics;
  report.record_to(metrics);
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("audit.x.pass"), std::string::npos);
  EXPECT_NE(json.find("audit.x.fail"), std::string::npos);
}

// ------------------------------------------- log_format bounds hardening

TEST(LogFormatBounds, SerializersRejectShortSectors) {
  std::vector<std::byte> shorty(disk::kSectorSize - 1);
  EXPECT_THROW(core::serialize_disk_header({1, 1, 0}, shorty), std::invalid_argument);

  const disk::DiskProfile p = disk::small_test_disk();
  EXPECT_THROW(core::serialize_geometry(p.geometry, p.rpm, shorty), std::invalid_argument);

  core::RecordHeader hdr;
  hdr.batch_size = 1;
  hdr.entries.resize(1);
  hdr.entries[0].log_lba = 10;
  EXPECT_THROW(core::serialize_record_header(hdr, shorty), std::invalid_argument);

  EXPECT_THROW((void)core::escape_payload_sector(shorty), std::invalid_argument);
  EXPECT_THROW(core::unescape_payload_sector(shorty, 0x42), std::invalid_argument);
}

TEST(LogFormatBounds, ParsersRejectShortSectors) {
  // A truncated buffer must yield nullopt, not an out-of-bounds read of
  // the CRC window (the regression this guards: sector_crc_excluding
  // copied a full sector unconditionally).
  disk::SectorBuf full{};
  core::serialize_disk_header({3, 0, 7}, full);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, disk::kSectorSize - 1}) {
    const std::span<const std::byte> shorty(full.data(), n);
    EXPECT_FALSE(core::parse_disk_header(shorty).has_value()) << n;
    EXPECT_FALSE(core::parse_record_header(shorty).has_value()) << n;
    EXPECT_FALSE(core::parse_geometry(shorty).has_value()) << n;
  }
}

// ------------------------------------------------------ offline census

/// The census of verify_log's pass over `device`.
LogCensus census_of(const disk::DiskDevice& device) {
  LogCensus census;
  (void)audit::verify_log(device, {}, &census);
  return census;
}

/// The census's records of `epoch`, ascending by key.
std::vector<LogRecord> records_of_epoch(const LogCensus& census, std::uint32_t epoch) {
  std::vector<LogRecord> out;
  for (const LogRecord& rec : census.records)
    if (rec.header.epoch == epoch) out.push_back(rec);
  return out;
}

class LogScannerTest : public TrailFixture {
 protected:
  LogScannerTest() : TrailFixture(2) {}
};

TEST_F(LogScannerTest, FreshFormatScansClean) {
  const LogCensus census = census_of(*log_disk);
  EXPECT_EQ(census.intact_header_replicas, 3);
  EXPECT_EQ(census.disk_header.epoch, 0u);
  EXPECT_EQ(census.disk_header.crash_var, 1u);
  EXPECT_EQ(census.record_headers, 0u);
  EXPECT_EQ(census.chain_length, 0u);
  EXPECT_FALSE(census.youngest.has_value());
}

TEST_F(LogScannerTest, UnformattedDiskReported) {
  disk::DiskDevice raw(sim, disk::small_test_disk());
  EXPECT_EQ(census_of(raw).intact_header_replicas, 0);
}

TEST_F(LogScannerTest, CensusCountsRecordsAndPayloads) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 5; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  driver->crash();
  driver.reset();

  LogCensus census;
  Report report = audit::verify_log(*log_disk, {}, &census);
  EXPECT_GT(census.intact_header_replicas, 0);
  EXPECT_EQ(census.disk_header.crash_var, 0u) << "crashed mount: dirty flag";
  EXPECT_EQ(census.records_per_epoch.at(1), 5u);
  EXPECT_GE(census.payload_sectors, 10u);
  EXPECT_TRUE(report.check("log.chain").ok()) << report.to_string();
  EXPECT_EQ(census.chain_length, 5u);
  ASSERT_TRUE(census.youngest.has_value());
  EXPECT_EQ(census.youngest->header.sequence_id, 5u);
  EXPECT_TRUE(census.youngest->payload_intact);
}

TEST_F(LogScannerTest, RecordsOfEpochAscending) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[1], static_cast<disk::Lba>(i * 2)}, make_pattern(1, 10 + i));
  driver->crash();
  driver.reset();

  const auto records = records_of_epoch(census_of(*log_disk), 1);
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(core::record_key(records[i - 1].header), core::record_key(records[i].header));
  // Each record's entries point at device (3,1).
  for (const auto& rec : records) {
    EXPECT_EQ(rec.header.entries[0].data_major, 3);
    EXPECT_EQ(rec.header.entries[0].data_minor, 1);
  }
  EXPECT_FALSE(audit::describe(records[0]).empty());
}

TEST_F(LogScannerTest, DetectsTornYoungestPayload) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  write_sync({devices[0], 0}, make_pattern(2, 1));
  write_sync({devices[0], 8}, make_pattern(2, 2));
  driver->crash();
  driver.reset();

  // Corrupt the youngest record's payload.
  const auto records = records_of_epoch(census_of(*log_disk), 1);
  ASSERT_EQ(records.size(), 2u);
  disk::SectorBuf sector{};
  log_disk->store().read(records[1].header_lba + 1, 1, sector);
  sector[50] ^= std::byte{0xFF};
  log_disk->store().write(records[1].header_lba + 1, 1, sector);

  // The torn record is the youngest (an unacknowledged tear is legal): the
  // census still names it, flagged torn, and the chain still verifies.
  LogCensus census;
  Report report = audit::verify_log(*log_disk, {}, &census);
  ASSERT_TRUE(census.youngest.has_value());
  EXPECT_EQ(census.youngest->header_lba, records[1].header_lba);
  EXPECT_FALSE(census.youngest->payload_intact);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(census.chain_length, 1u);
}

TEST_F(LogScannerTest, UtilizationMatchesAllocatorAccounting) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one batch per track
  start(cfg);
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 8)}, make_pattern(4, i));
  driver->crash();
  driver.reset();

  const LogCensus census = census_of(*log_disk);
  int touched = 0;
  for (double u : census.track_utilization)
    if (u > 0) ++touched;
  EXPECT_EQ(touched, 6) << "one record per track at threshold 0";
  for (double u : census.track_utilization) {
    if (u > 0) {
      EXPECT_NEAR(u, 5.0 / 20.0, 0.08);  // 1 hdr + 4 payload on ~16-24 spt
    }
  }
}

// ---------------------------------------------------- offline verifier

class AuditVerifierTest : public TrailFixture {
 protected:
  static constexpr int kRecords = 5;

  AuditVerifierTest() : TrailFixture(2) {}

  /// Run kRecords writes in epoch 1, crash with them pending, and return
  /// the census's records sorted oldest -> youngest.
  auto prepare_crashed_log() {
    start();
    for (auto& d : data_disks) d->crash_halt();
    for (int i = 0; i < kRecords; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
    driver->crash();
    driver.reset();
    auto records = records_of_epoch(census_of(*log_disk), 1);
    EXPECT_EQ(records.size(), static_cast<std::size_t>(kRecords));
    return records;
  }

  /// Raw bit-flip inside the sector at `lba`.
  void flip(disk::Lba lba, std::size_t offset, std::byte mask) {
    disk::SectorBuf sector{};
    log_disk->store().read(lba, 1, sector);
    sector[offset] ^= mask;
    log_disk->store().write(lba, 1, sector);
  }

  /// Parse the record header at `lba`, mutate a field, and write it back
  /// re-serialized (header CRC valid again: the corruption is semantic).
  void reserialize(disk::Lba lba, const std::function<void(core::RecordHeader&)>& fn) {
    disk::SectorBuf sector{};
    log_disk->store().read(lba, 1, sector);
    auto hdr = core::parse_record_header(sector);
    ASSERT_TRUE(hdr.has_value());
    fn(*hdr);
    core::serialize_record_header(*hdr, sector);
    log_disk->store().write(lba, 1, sector);
  }

  /// The census must survive the image without throwing, whatever state
  /// it is in.
  void expect_census_survives() { EXPECT_NO_THROW((void)census_of(*log_disk)); }

  /// Reboot + mount. Returns the recovered record count, or nullopt if
  /// recovery rejected the image with std::runtime_error.
  std::optional<std::uint32_t> remount_records() {
    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    auto fresh = std::make_unique<core::TrailDriver>(sim, *log_disk);
    for (auto& d : data_disks) (void)fresh->add_data_disk(*d);
    try {
      fresh->mount();
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
    const std::uint32_t found = fresh->last_recovery().records_found;
    fresh->unmount();
    return found;
  }
};

TEST_F(AuditVerifierTest, FreshFormatIsClean) {
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.total_warnings(), 0u) << report.to_string();
}

TEST_F(AuditVerifierTest, CrashedImageHasNoErrors) {
  prepare_crashed_log();
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditVerifierTest, CleanUnmountedImageIsClean) {
  start();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[1], static_cast<disk::Lba>(i * 8)}, make_pattern(2, 40 + i));
  settle();
  driver->unmount();
  driver.reset();
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditVerifierTest, UnformattedImageFailsHeaderCheck) {
  disk::DiskDevice raw(sim, disk::small_test_disk());
  Report report = audit::verify_log(raw);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.check("log.disk_header").errors(), 0u);
}

// ---- the corruption table: one §3.2 header field class per test ----

TEST_F(AuditVerifierTest, CorruptMagicByteDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba, 0, std::byte{0xA5});  // 0xFF -> 0x5A

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.sector_classes").errors(), 0u) << report.to_string();
  expect_census_survives();
  // The chain from the youngest runs into the destroyed header.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptSignatureDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba, 3, std::byte{0xFF});  // signature byte

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.sector_classes").errors(), 0u) << report.to_string();
  expect_census_survives();
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptEpochDetected) {
  const auto records = prepare_crashed_log();
  reserialize(records[2].header_lba,
              [](core::RecordHeader& h) { h.epoch += 7; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  // The walk from the youngest epoch-1 record meets an epoch-8 header.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptPrevSectDetected) {
  const auto records = prepare_crashed_log();
  const auto unwritten =
      static_cast<std::uint32_t>(log_disk->geometry().total_sectors() - 5);
  reserialize(records.back().header_lba,
              [&](core::RecordHeader& h) { h.prev_sect = core::encode_log_ptr(0, unwritten); });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, UnstampedTrackInsideTheArcBreaksRingOrder) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one record per track
  start(cfg);
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < kRecords; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  driver->crash();
  driver.reset();
  EXPECT_TRUE(audit::verify_log(*log_disk).ok());
  const auto records = records_of_epoch(census_of(*log_disk), 1);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRecords));
  // Erase the middle record's header: its track is now unstamped, inside
  // the arc — what a mount resuming past erased cut records left behind.
  flip(records[2].header_lba, 0, std::byte{0xFF});  // 0xFF -> 0x00

  Report report = audit::verify_log(*log_disk);
  const audit::Check& ring = report.check("log.ring_order");
  ASSERT_EQ(ring.errors(), 1u) << report.to_string();
  EXPECT_EQ(ring.findings().front().lba,
            log_disk->geometry().first_lba_of_track(records[2].track));
}

// Locate anchors on the header's resume track; when it is unstamped, it
// takes the track before it for the newest. A header naming an
// unstamped track two past the newest would make the mount find nothing.
TEST_F(AuditVerifierTest, UnstampedResumeTrackPastTheNewestBreaksRingOrder) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one record per track
  start(cfg);
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < kRecords; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  driver->crash();
  driver.reset();
  const auto records = records_of_epoch(census_of(*log_disk), 1);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRecords));
  const core::LogDiskLayout layout(log_disk->geometry());
  const auto plant_resume = [&](disk::TrackId track) {
    disk::SectorBuf sector{};
    core::serialize_disk_header(core::LogDiskHeader{1, 0, track}, sector);
    for (int r = 0; r < layout.replica_count(); ++r)
      log_disk->store().write(layout.header_lba(r), 1, sector);
  };
  // small_test_disk reserves no track in this stretch of the ring.
  const disk::TrackId after_newest = records.back().track + 1;
  plant_resume(after_newest);
  EXPECT_TRUE(audit::verify_log(*log_disk).ok());
  plant_resume(after_newest + 1);
  Report report = audit::verify_log(*log_disk);
  const audit::Check& ring = report.check("log.ring_order");
  ASSERT_EQ(ring.errors(), 1u) << report.to_string();
  EXPECT_EQ(ring.findings().front().lba,
            log_disk->geometry().first_lba_of_track(after_newest + 1));
}

// A fresh format's resume_track 0 is a reserved track, and the first
// mount's is unstamped on an empty ring: both pass the resume rule.
TEST_F(AuditVerifierTest, FreshFormatAndFirstMountPassTheResumeRule) {
  EXPECT_TRUE(audit::verify_log(*log_disk).check("log.ring_order").ok());
  start();
  driver->crash();
  driver.reset();
  const LogCensus census = census_of(*log_disk);
  EXPECT_EQ(census.disk_header.epoch, 1u);
  EXPECT_EQ(census.disk_header.resume_track, 1u);  // the first usable track
  EXPECT_TRUE(census.records.empty());
  EXPECT_TRUE(audit::verify_log(*log_disk).check("log.ring_order").ok());
}

TEST_F(AuditVerifierTest, CorruptLogHeadDetected) {
  const auto records = prepare_crashed_log();
  const auto unwritten =
      static_cast<std::uint32_t>(log_disk->geometry().total_sectors() - 5);
  reserialize(records.back().header_lba,
              [&](core::RecordHeader& h) { h.log_head = core::encode_log_ptr(0, unwritten); });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Recovery walks to the prev_sect sentinel and stops: it still finds
  // every record, it just could not use the bound. Legal, if untidy.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords));
}

TEST_F(AuditVerifierTest, CorruptEntryArrayDetected) {
  const auto records = prepare_crashed_log();
  reserialize(records[2].header_lba,
              [](core::RecordHeader& h) { h.entries[1].log_lba += 1; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.record_entries").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Replay applies payload bytes it already read contiguously, so the
  // poisoned pointer array does not break recovery itself.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords));
}

TEST_F(AuditVerifierTest, CorruptChainPayloadDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba + 1, 100, std::byte{0x01});  // on-chain payload

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.payload_crc").errors(), 0u) << report.to_string();
  expect_census_survives();
  // A torn record below an intact one is impossible in a legal crash.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, TornTailIsLegalButReportable) {
  const auto records = prepare_crashed_log();
  flip(records.back().header_lba + 1, 64, std::byte{0x80});  // youngest payload

  Report lenient = audit::verify_log(*log_disk);
  EXPECT_TRUE(lenient.ok()) << lenient.to_string();
  EXPECT_GT(lenient.check("log.payload_crc").warnings(), 0u);

  VerifyOptions strict;
  strict.allow_torn_tail = false;
  Report hard = audit::verify_log(*log_disk, strict);
  EXPECT_GT(hard.check("log.payload_crc").errors(), 0u);

  // Recovery drops the torn youngest and keeps the rest.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords - 1));
}

TEST_F(AuditVerifierTest, DuplicateRecordKeyDetected) {
  const auto records = prepare_crashed_log();
  const std::uint32_t newest_seq = records.back().header.sequence_id;
  reserialize(records[2].header_lba,
              [&](core::RecordHeader& h) { h.sequence_id = newest_seq; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.record_keys").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Depending on which duplicate the locator anchors on, recovery either
  // trips the key-monotonicity guard or truncates the chain early; it
  // must never adopt all records as if the image were healthy.
  const auto found = remount_records();
  if (found.has_value()) {
    EXPECT_LT(*found, static_cast<std::uint32_t>(kRecords));
  }
}

// The writer builds every record inside one free run of its track, so a
// payload that crosses into the next track is no record at all, however
// valid its CRC: fsck flags it and recovery drops it as torn.
TEST_F(AuditVerifierTest, RecordPayloadCrossingItsTrackIsRejected) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 3; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(1, i));
  driver->crash();
  driver.reset();
  const LogCensus before = census_of(*log_disk);
  ASSERT_TRUE(before.youngest.has_value());
  const LogRecord& youngest = *before.youngest;

  // A correctly serialized header in the last sector of the youngest
  // record's track, chained as the new youngest, whose 2-sector payload
  // (valid CRC) lies on the next track.
  const disk::Geometry& geom = log_disk->geometry();
  const disk::Lba lba =
      geom.first_lba_of_track(youngest.track) + geom.spt_of_track(youngest.track) - 1;
  for (disk::Lba l = lba; l < lba + 3; ++l) ASSERT_FALSE(log_disk->store().is_written(l)) << l;
  const auto reserved = core::LogDiskLayout(geom).reserved_tracks();
  ASSERT_EQ(std::count(reserved.begin(), reserved.end(), youngest.track + 1), 0);
  core::RecordHeader hdr;
  hdr.batch_size = 2;
  hdr.epoch = youngest.header.epoch;
  hdr.sequence_id = youngest.header.sequence_id + 1;
  hdr.prev_sect = core::encode_log_ptr(0, static_cast<std::uint32_t>(youngest.header_lba));
  hdr.log_head = youngest.header.log_head;
  hdr.entries.resize(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    hdr.entries[i].log_lba = static_cast<std::uint32_t>(lba + 1 + i);
    hdr.entries[i].data_lba = 600 + i;
    hdr.entries[i].data_major = devices[0].major();
    hdr.entries[i].data_minor = devices[0].minor();
  }
  auto payload = make_pattern(2, 777);
  hdr.payload_crc = core::escape_payload_image(payload, hdr.entries);
  disk::SectorBuf sector{};
  core::serialize_record_header(hdr, sector);
  log_disk->store().write(lba, 1, sector);
  log_disk->store().write(lba + 1, 2, payload);

  LogCensus census;
  Report report = audit::verify_log(*log_disk, {}, &census);
  EXPECT_GT(report.check("log.record_entries").errors(), 0u) << report.to_string();
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 3u);
  EXPECT_EQ(census.chain_length, *found);
  EXPECT_FALSE(data_disks[0]->store().is_written(600));
  EXPECT_FALSE(data_disks[0]->store().is_written(601));
}

// A power cut fills the sector under the head with garbage. Inside a
// torn record's payload that is legal tail damage, not corruption: sweep
// the cut across one 8-sector write behind 3 pending records and hold
// every image with a torn record to a clean fsck.
TEST_F(AuditVerifierTest, ShornSectorInTornTailIsNotCorruption) {
  int torn_images = 0;
  for (std::uint32_t k = 0; k < 40; ++k) {
    SCOPED_TRACE("power cut " + std::to_string(k) + " sector times into the write");
    log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
    core::format_log_disk(*log_disk);
    data_disks.clear();
    for (int i = 0; i < 2; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile_));
    start();
    for (auto& d : data_disks) d->crash_halt();
    for (int i = 0; i < 3; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, 10 + i));
    driver->submit_write({devices[0], 900}, 8, make_pattern(8, 99), [] {});
    sim.run_until(sim.now() + log_profile_.command_overhead + log_profile_.sector_time(0) * k);
    driver->crash();
    driver.reset();

    LogCensus census;
    const Report report = audit::verify_log(*log_disk, {}, &census);
    if (std::any_of(census.records.begin(), census.records.end(),
                    [](const LogRecord& rec) { return !rec.payload_intact; })) {
      ++torn_images;
      EXPECT_TRUE(report.ok()) << report.to_string();
    }
    const auto found = remount_records();
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(census.chain_length, *found);
  }
  EXPECT_GT(torn_images, 0);
}

// ------------------------------------------------------ runtime audits

class AuditRuntimeTest : public TrailFixture {
 protected:
  AuditRuntimeTest() : TrailFixture(2) {}
};

TEST_F(AuditRuntimeTest, DriverAuditCleanAfterMount) {
  start();
  Report report;
  driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditRuntimeTest, DriverAuditCleanDuringAndAfterTraffic) {
  start();
  for (int i = 0; i < 8; ++i)
    write_sync({devices[i % 2], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  Report busy;
  driver->run_audit(busy, /*quiescent=*/false);
  EXPECT_TRUE(busy.ok()) << busy.to_string();

  settle();
  Report quiet;
  driver->run_audit(quiet, /*quiescent=*/true);
  EXPECT_TRUE(quiet.ok()) << quiet.to_string();
  EXPECT_GT(quiet.check("store.chunks").passes(), 0u);
  EXPECT_GT(quiet.check("buffer.state").passes(), 0u);
}

TEST_F(AuditRuntimeTest, DriverAuditCleanAfterRecovery) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  crash_and_remount();
  Report report;
  driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  verify_all_acknowledged_durable();
}

TEST(AuditDatabase, EngineAuditCleanAroundCheckpoint) {
  sim::Simulator sim;
  io::StandardDriver driver;
  disk::DiskDevice log_dev(sim, disk::small_test_disk());
  disk::DiskDevice data_dev(sim, disk::small_test_disk());
  const io::DeviceId log_id = driver.add_device(log_dev);
  const io::DeviceId data_id = driver.add_device(data_dev);

  db::DbConfig cfg;
  cfg.buffer_pool_pages = 8;
  cfg.log_region_sectors = 512;
  cfg.checkpoint_every_bytes = 0;
  db::Database db(sim, driver, log_id, cfg);
  db.attach_device(log_id, log_dev);
  db.attach_device(data_id, data_dev);
  const db::TableId items = db.create_table("items", 64, 200, data_id);

  auto pump = [&](const bool& flag) {
    while (!flag) ASSERT_TRUE(sim.step()) << "simulation stalled";
  };
  for (int i = 0; i < 10; ++i) {
    db::Txn& txn = db.begin();
    db::RowBuf row(64, std::byte(static_cast<std::uint8_t>(i)));
    bool put = false;
    txn.update(items, static_cast<db::Key>(i), row, [&](bool ok) {
      ASSERT_TRUE(ok);
      put = true;
    });
    pump(put);
    bool committed = false;
    db.commit(txn, [&](bool ok) {
      ASSERT_TRUE(ok);
      committed = true;
    });
    pump(committed);

    Report mid;
    db.run_audit(mid, /*quiescent=*/false);
    EXPECT_TRUE(mid.ok()) << mid.to_string();
  }

  bool checked = false;
  db.checkpoint([&] { checked = true; });
  pump(checked);
  Report report;
  db.run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.check("wal.sequence").passes(), 0u);
  EXPECT_GT(report.check("pool.frames").passes(), 0u);
}

}  // namespace
}  // namespace trail::testing
