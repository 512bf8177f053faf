#include "audit/log_verifier.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/format_tool.hpp"
#include "core/log_format.hpp"

namespace trail::audit {

namespace {

std::string replica_name(const char* what, int replica) {
  return std::string(what) + " replica " + std::to_string(replica);
}

}  // namespace

Report verify_log(const disk::SectorStore& store, const disk::Geometry& geometry,
                  const VerifyOptions& options, LogCensus* census) {
  Report report;
  LogCensus seen;
  const core::LogDiskLayout layout(geometry);

  Check& c_header = report.check("log.disk_header");
  Check& c_geom = report.check("log.geometry_block");
  Check& c_class = report.check("log.sector_classes");
  Check& c_entries = report.check("log.record_entries");
  Check& c_crc = report.check("log.payload_crc");
  Check& c_keys = report.check("log.record_keys");
  Check& c_chain = report.check("log.chain");
  Check& c_ring = report.check("log.ring_order");

  // ---- replicated log_disk_header + geometry blocks (§3.2, §4.1) ----
  std::vector<core::LogDiskHeader> headers;
  disk::SectorBuf sector{};
  for (int r = 0; r < layout.replica_count(); ++r) {
    store.read(layout.header_lba(r), 1, sector);
    if (const auto hdr = core::parse_disk_header(sector)) {
      c_header.pass();
      if (headers.empty()) seen.disk_header = *hdr;
      headers.push_back(*hdr);
    } else {
      c_header.fail(replica_name("disk header", r) + " damaged", layout.header_lba(r),
                    Severity::kWarning);
    }

    store.read(layout.geometry_lba(r), 1, sector);
    if (const auto geom = core::parse_geometry(sector)) {
      const bool matches = geom->geometry.surfaces() == geometry.surfaces() &&
                           geom->geometry.track_count() == geometry.track_count() &&
                           geom->geometry.total_sectors() == geometry.total_sectors();
      if (matches)
        c_geom.pass();
      else
        c_geom.fail(replica_name("geometry block", r) + " disagrees with the device geometry",
                    layout.geometry_lba(r));
    } else {
      c_geom.fail(replica_name("geometry block", r) + " damaged", layout.geometry_lba(r),
                  Severity::kWarning);
    }
  }
  seen.intact_header_replicas = static_cast<int>(headers.size());
  if (headers.empty())
    c_header.fail("no intact disk header replica: the disk is unidentifiable");
  for (std::size_t r = 1; r < headers.size(); ++r) {
    // Replicas are stamped sequentially; a crash mid-stamp legally leaves
    // them disagreeing, so this is a warning, not corruption.
    if (!(headers[r] == headers[0])) {
      c_header.fail("intact disk header replicas disagree (crash mid-stamp?)",
                    Finding::kNoLba, Severity::kWarning);
      break;
    }
  }

  // ---- full-disk census: first-byte discipline + record collection ----
  std::set<disk::TrackId> reserved;
  for (disk::TrackId t : layout.reserved_tracks()) reserved.insert(t);
  std::set<disk::Lba> metadata_lbas;
  for (int r = 0; r < layout.replica_count(); ++r) {
    metadata_lbas.insert(layout.header_lba(r));
    metadata_lbas.insert(layout.geometry_lba(r));
  }

  // A written sector inside the payload extent of a record parsed at a
  // lower LBA is judged by the chain-aware escape check below, whatever
  // its first byte: a crash shears the sector under the head mid-payload,
  // and track reuse overwrites stale payloads.
  std::vector<LogRecord> records;
  std::vector<std::byte> span((1 + core::kMaxTrailBatch) * disk::kSectorSize);
  disk::Lba extent_end = 0;
  for (disk::Lba lba = 0; lba < geometry.total_sectors(); ++lba) {
    if (!store.is_written(lba)) continue;
    store.read(lba, 1, sector);
    const disk::TrackId track = geometry.track_of_lba(lba);
    ++seen.sectors_written;

    if (reserved.contains(track)) {
      switch (core::classify_sector(sector)) {
        case core::SectorKind::kRecordHeader:
          ++seen.record_headers;
          break;
        case core::SectorKind::kPayload:
          ++seen.payload_sectors;
          break;
        case core::SectorKind::kOther:
          ++seen.other_sectors;
          break;
      }
      // Reserved tracks hold only the replicated metadata sectors; the
      // format tool wiped everything else.
      if (!metadata_lbas.contains(lba))
        c_class.fail("unexpected write on a reserved metadata track", lba);
      else
        c_class.pass();
      continue;
    }

    const bool in_extent = lba < extent_end;
    if (sector[0] == core::kHeaderFirstByte) {
      // read_record's span: to the end of the track, at most one record.
      const disk::Lba track_end = geometry.first_lba_of_track(track) + geometry.spt_of_track(track);
      const auto sectors = static_cast<std::uint32_t>(
          std::min<disk::Lba>(track_end - lba, 1 + core::kMaxTrailBatch));
      const auto window = std::span<std::byte>(span).first(sectors * disk::kSectorSize);
      store.read(lba, sectors, window);
      auto rec = core::read_record(window);
      if (!rec) {
        ++seen.other_sectors;
        if (!in_extent)
          c_class.fail("0xFF first byte but the sector is not an intact record header", lba);
        continue;
      }
      ++seen.record_headers;
      c_class.pass();
      if (rec->payload.empty()) c_entries.fail("record payload crosses the end of its track", lba);
      extent_end = std::max(extent_end, lba + 1 + rec->header.batch_size);
      records.push_back(LogRecord{std::move(rec->header), lba, track, rec->intact});
    } else if (sector[0] == core::kDataFirstByte) {
      ++seen.payload_sectors;
      c_class.pass();  // escaped payload (or zero fill)
    } else {
      ++seen.other_sectors;
      if (!in_extent)
        c_class.fail("written sector violates the 0xFF/0x00 first-byte discipline", lba);
    }
  }

  // ---- entry-array / payload-layout agreement per record ----
  // First-byte violations are only classified after the chain walk: a
  // stale record's payload region is legally clobbered by track reuse,
  // so the 0x00 discipline is an error only for live-chain records.
  std::vector<std::pair<const LogRecord*, disk::Lba>> escape_violations;
  for (const LogRecord& rec : records) {
    bool layout_ok = true;
    bool any_direct = false;
    bool any_block = false;
    std::uint64_t prev_cookie = 0;
    bool cookie_ok = true;
    for (std::uint32_t i = 0; i < rec.header.batch_size; ++i) {
      const core::RecordEntry& e = rec.header.entries[i];
      if (e.log_lba != rec.header_lba + 1 + i) layout_ok = false;
      if (e.data_major == core::kDirectLogMajor) {
        if (any_direct && e.data_lba != prev_cookie + disk::kSectorSize) cookie_ok = false;
        prev_cookie = e.data_lba;
        any_direct = true;
      } else {
        any_block = true;
      }
      // Save/restore consistency: the on-disk payload sector must carry
      // the forced 0x00 first byte (the original lives in
      // first_data_byte and is restored only in memory).
      if (e.log_lba < geometry.total_sectors() && store.is_written(e.log_lba)) {
        store.read(e.log_lba, 1, sector);
        if (sector[0] != core::kDataFirstByte) escape_violations.emplace_back(&rec, e.log_lba);
      }
    }
    c_entries.require(layout_ok, "entry log_lba array disagrees with the contiguous payload "
                                 "layout", rec.header_lba);
    c_entries.require(!(any_direct && any_block),
                      "record mixes direct-log and block entries", rec.header_lba);
    if (any_direct)
      c_entries.require(cookie_ok, "direct-log cookies not contiguous within the record",
                        rec.header_lba);
  }

  // ---- global (epoch, sequence_id) uniqueness ----
  std::map<std::uint64_t, disk::Lba> by_key;
  for (const LogRecord& rec : records) {
    const std::uint64_t key = core::record_key(rec.header);
    const auto [it, inserted] = by_key.emplace(key, rec.header_lba);
    if (inserted)
      c_keys.pass();
    else
      c_keys.fail("duplicate (epoch, sequence_id) record key", rec.header_lba);
  }

  // ---- the §3.3 chain walk, as recovery's rebuild runs it ----
  std::uint32_t stamped_epoch = 0;
  for (const core::LogDiskHeader& h : headers) stamped_epoch = std::max(stamped_epoch, h.epoch);
  if (!headers.empty()) {
    for (const LogRecord& rec : records)
      if (rec.header.epoch > stamped_epoch)
        c_chain.fail("record carries an epoch newer than the stamped disk header",
                     rec.header_lba);
  }

  std::map<disk::Lba, const LogRecord*> by_lba;
  for (const LogRecord& rec : records) by_lba[rec.header_lba] = &rec;

  // The same start rule as recovery's locate: the youngest record at or
  // below the stamped epoch, torn or not.
  const LogRecord* youngest = nullptr;
  for (const LogRecord& rec : records)
    if (rec.header.epoch <= stamped_epoch &&
        (youngest == nullptr ||
         core::record_key(rec.header) > core::record_key(youngest->header)))
      youngest = &rec;

  std::set<disk::Lba> on_chain;   // at or after the walk's first intact record
  std::set<disk::Lba> torn_tail;  // walked before it
  bool chain_ok = true;
  if (youngest != nullptr) {
    core::ChainWalk walk(core::encode_log_ptr(0, static_cast<std::uint32_t>(youngest->header_lba)),
                         headers.empty() ? 0 : core::oldest_pending_epoch(seen.disk_header));
    disk::Lba lba = youngest->header_lba;
    while (!walk.done()) {
      if (core::log_ptr_unit(walk.next()) != 0) {
        // Multi-log-disk chain: out of a single-disk verifier's scope.
        c_chain.fail("chain crosses to another log disk (verify that disk too)", lba,
                     Severity::kWarning);
        break;
      }
      lba = core::log_ptr_lba(walk.next());
      const auto it = by_lba.find(lba);
      const LogRecord* rec = it == by_lba.end() ? nullptr : it->second;
      using V = core::ChainWalk::Verdict;
      const V verdict = walk.step(rec != nullptr ? &rec->header : nullptr,
                                  rec != nullptr && rec->payload_intact);
      if (verdict == V::kNotRecord || verdict == V::kKeyOrder) {
        c_chain.fail(verdict == V::kNotRecord
                         ? "prev_sect points at a non-record sector"
                         : "(epoch, sequence_id) not strictly decreasing along prev_sect",
                     lba);
        chain_ok = false;
      } else if (verdict == V::kTornTail) {
        torn_tail.insert(lba);
      } else if (verdict != V::kExpired) {
        on_chain.insert(lba);
      }
    }
    if (walk.bound_missed()) {
      c_chain.fail("chain ended (prev_sect sentinel) before reaching the log_head bound", lba);
      chain_ok = false;
    }
  }
  if (chain_ok) c_chain.pass(on_chain.empty() ? 1 : on_chain.size());  // empty chain: one pass
  seen.chain_length = static_cast<std::uint32_t>(on_chain.size());

  // ---- the ring invariant locate's binary search rests on ----
  // Each usable track's stamp, in ring order: `records` ascend by LBA, so
  // one cursor over them yields every track's newest in-epoch key.
  core::RingOrder ring(youngest != nullptr ? core::TrackStamp(core::record_key(youngest->header))
                                           : std::nullopt);
  const auto ring_step = [&](disk::TrackId track, const core::TrackStamp& stamp) {
    if (ring.step(stamp)) return;
    c_ring.fail(stamp ? "track ring out of order: newest key below the previous track's"
                      : "track ring out of order: unstamped track inside the stamped arc",
                geometry.first_lba_of_track(track));
  };
  std::optional<std::pair<disk::TrackId, core::TrackStamp>> first;
  std::optional<disk::TrackId> last_usable, before_resume;
  bool resume_unstamped = false;
  std::size_t cursor = 0;
  for (disk::TrackId t = 0; t < geometry.track_count(); ++t) {
    if (reserved.contains(t)) continue;
    core::TrackStamp stamp;
    for (; cursor < records.size() && records[cursor].track == t; ++cursor) {
      const std::uint64_t key = core::record_key(records[cursor].header);
      if (records[cursor].header.epoch <= stamped_epoch && (!stamp || key > *stamp)) stamp = key;
    }
    if (!first) first.emplace(t, stamp);
    ring_step(t, stamp);
    if (t == seen.disk_header.resume_track) {
      resume_unstamped = !stamp;
      before_resume = last_usable;
    }
    last_usable = t;
  }
  if (first) ring_step(first->first, first->second);  // close the ring
  // The resume rule locate rests on (DESIGN.md §5, invariant 9): an
  // unstamped resume track follows the newest track, or the ring is
  // empty. A fresh format's resume_track 0 is a reserved track.
  if (resume_unstamped && youngest != nullptr &&
      youngest->track != before_resume.value_or(*last_usable))
    c_ring.fail("unstamped resume track does not follow the newest track",
                geometry.first_lba_of_track(seen.disk_header.resume_track));
  if (c_ring.ok()) c_ring.pass();

  // ---- escape bytes and payload CRCs, graded by walk membership ----
  // On the chain = corruption; torn tail = the crash's unacknowledged
  // final write, which recovery drops; never walked = a stale record
  // partially overwritten by track reuse (legal).
  const auto grade = [&](Check& check, disk::Lba header_lba, disk::Lba at, const char* chain_msg,
                         const char* tail_msg, const char* stale_msg) {
    if (on_chain.contains(header_lba))
      check.fail(chain_msg, at);
    else if (torn_tail.contains(header_lba))
      check.fail(tail_msg, at, options.allow_torn_tail ? Severity::kWarning : Severity::kError);
    else
      check.fail(stale_msg, at, Severity::kWarning);
  };
  for (const auto& [rec, payload_lba] : escape_violations)
    grade(c_entries, rec->header_lba, payload_lba, "payload sector escaped first byte is not 0x00",
          "torn-tail payload sector lost the 0x00 escape byte",
          "stale record payload overwritten by track reuse");
  for (const LogRecord& rec : records) {
    if (rec.payload_intact)
      c_crc.pass();
    else
      grade(c_crc, rec.header_lba, rec.header_lba, "torn payload on a live-chain record",
            "torn tail record (crash cut the final physical write)",
            "off-chain torn payload (stale / partially overwritten record)");
  }

  if (census == nullptr) return report;
  std::vector<std::uint32_t> used_sectors(geometry.track_count(), 0);
  for (const LogRecord& rec : records) {
    ++seen.records_per_epoch[rec.header.epoch];
    if (rec.header.epoch == stamped_epoch) used_sectors[rec.track] += 1 + rec.header.batch_size;
  }
  if (youngest != nullptr) seen.youngest = *youngest;
  seen.track_utilization.resize(geometry.track_count());
  for (disk::TrackId t = 0; t < geometry.track_count(); ++t)
    seen.track_utilization[t] = static_cast<double>(used_sectors[t]) / geometry.spt_of_track(t);
  seen.records = std::move(records);
  std::sort(seen.records.begin(), seen.records.end(), [](const LogRecord& a, const LogRecord& b) {
    return core::record_key(a.header) < core::record_key(b.header);
  });
  *census = std::move(seen);
  return report;
}

Report verify_log(const disk::DiskDevice& device, const VerifyOptions& options,
                  LogCensus* census) {
  return verify_log(device.store(), device.geometry(), options, census);
}

std::string describe(const LogRecord& record) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "record epoch=%u seq=%u @lba %llu (track %u): %u payload sector%s, %s\n",
                record.header.epoch, record.header.sequence_id,
                static_cast<unsigned long long>(record.header_lba), record.track,
                record.header.batch_size, record.header.batch_size == 1 ? "" : "s",
                record.payload_intact ? "payload OK" : "payload TORN");
  out += buf;
  std::snprintf(buf, sizeof buf, "  prev_sect=%#x log_head=%#x\n", record.header.prev_sect,
                record.header.log_head);
  out += buf;
  for (std::uint32_t i = 0; i < record.header.batch_size; ++i) {
    const core::RecordEntry& e = record.header.entries[i];
    if (e.data_major == core::kDirectLogMajor)
      std::snprintf(buf, sizeof buf, "  [%2u] log_lba=%u  DIRECT cookie=%u first_byte=%02x\n",
                    i, e.log_lba, e.data_lba, e.first_data_byte);
    else
      std::snprintf(buf, sizeof buf,
                    "  [%2u] log_lba=%u -> dev(%u,%u) lba=%u first_byte=%02x\n", i, e.log_lba,
                    e.data_major, e.data_minor, e.data_lba, e.first_data_byte);
    out += buf;
  }
  return out;
}

}  // namespace trail::audit
