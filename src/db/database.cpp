#include "db/database.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "audit/check.hpp"
#include "core/crc32.hpp"
#include "db/chain.hpp"

namespace trail::db {

// ---------------------------------------------------------------------------
// Txn
// ---------------------------------------------------------------------------

void Txn::begin_op() const {
  if (read_done_ || locked_read_done_ || write_done_)
    throw std::logic_error("Txn: an operation is already in flight");
}

void Txn::get(TableId table, Key key, ReadDone cb) {
  begin_op();
  read_done_ = std::move(cb);
  db_->table(table).get(key, [this](bool found, RowView row) {
    const ReadDone done = std::move(read_done_);
    done(found, row);
  });
}

void Txn::get_for_update(TableId table, Key key, LockedReadDone cb) {
  begin_op();
  locked_read_done_ = std::move(cb);
  db_->locks_->lock(id_, table, key, [this, table, key](bool granted) {
    if (!granted) {
      const LockedReadDone done = std::move(locked_read_done_);
      done(false, false, {});
      return;
    }
    db_->table(table).get(key, [this](bool found, RowView row) {
      const LockedReadDone done = std::move(locked_read_done_);
      done(true, found, row);
    });
  });
}

void Txn::record_undo(TableId table, Key key, bool existed, RowView before) {
  // First touch only: the oldest image is the one abort restores.
  for (const Undo& u : undo_)
    if (u.table == table && u.key == key) return;
  undo_.push_back(Undo{table, key, existed, undo_rows_.size(), before.size()});
  undo_rows_.insert(undo_rows_.end(), before.begin(), before.end());
}

void Txn::pin_row(TableId table, Key key) {
  Table& t = db_->table(table);
  if (const auto page = t.page_of(key)) {
    t.pin_page(*page);
    pins_.push_back(Pin{table, *page});
  }
}

void Txn::finish_write(bool ok) {
  const WriteDone done = std::move(write_done_);
  done(ok);
}

void Txn::write_common(TableId table, Key key, RowView row, WalRecordType type,
                       WriteDone cb) {
  begin_op();
  write_done_ = std::move(cb);
  write_.type = type;
  write_.txn = id_;
  write_.table = table;
  write_.key = key;
  write_.row.assign(row.begin(), row.end());
  db_->locks_->lock(id_, table, key, [this](bool granted) {
    if (!granted) {
      finish_write(false);
      return;
    }
    // Read the before-image for undo (first touch only).
    db_->table(write_.table).get(write_.key, [this](bool found, RowView before) {
      apply_write(found, before);
    });
  });
}

void Txn::apply_write(bool existed, RowView before) {
  record_undo(write_.table, write_.key, existed, before);
  // WAL-before-apply: append the redo record first so the page's
  // flush_lsn bound (set by mark_dirty during apply) covers it.
  const Lsn lsn = db_->wal_->append(write_);
  if (first_lsn_ == kInvalidLsn) first_lsn_ = lsn;
  last_lsn_ = lsn;

  // Pin the row's page (for deletes: before the index entry goes; for
  // updates of existing rows and fresh inserts: once applied).
  Table& t = db_->table(write_.table);
  if (write_.type == WalRecordType::kDelete) {
    pin_row(write_.table, write_.key);
    t.remove(write_.key, [this] { finish_write(true); });
    return;
  }
  t.apply_image(write_.key, write_.row, [this] {
    pin_row(write_.table, write_.key);
    finish_write(true);
  });
}

void Txn::update(TableId table, Key key, RowView row, WriteDone cb) {
  write_common(table, key, row, WalRecordType::kUpdate, std::move(cb));
}

void Txn::insert(TableId table, Key key, RowView row, WriteDone cb) {
  write_common(table, key, row, WalRecordType::kInsert, std::move(cb));
}

void Txn::remove(TableId table, Key key, WriteDone cb) {
  write_common(table, key, {}, WalRecordType::kDelete, std::move(cb));
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(sim::Simulator& sim, io::BlockDriver& driver, io::DeviceId log_device,
                   DbConfig config)
    : sim_(sim), driver_(driver), log_device_(log_device), config_(config) {
  WalConfig wal_config;
  wal_config.region_base = io::BlockAddr{log_device, kMetaSectors};  // after the meta page
  wal_config.region_sectors = config_.log_region_sectors;
  wal_config.group_commit = config_.group_commit;
  wal_config.group_commit_bytes = config_.log_buffer_bytes;
  wal_ = std::make_unique<LogManager>(sim_, driver_, wal_config);
  pool_ = std::make_unique<BufferPool>(sim_, config_.buffer_pool_pages, wal_.get());
  locks_ = std::make_unique<LockManager>(sim_, config_.lock_timeout);
  meta_base_ = 0;
  wal_base_ = kMetaSectors;
  alloc_cursor_[log_device.index()] =
      kMetaSectors + config_.log_region_sectors;  // tables may share the log device
}

void Database::attach_filesystem(io::DeviceId id, fs::Filesystem& filesystem) {
  if (!tables_.empty())
    throw std::logic_error("Database: attach filesystems before create_table");
  filesystems_[id.index()] = &filesystem;
  if (id.index() != log_device_.index()) return;

  // Move the WAL + meta page into files. Reopen them if they exist.
  auto file_or_create = [&filesystem](const std::string& name, std::uint64_t sectors) {
    if (const auto existing = filesystem.open(name)) return *existing;
    return filesystem.create_offline(name, sectors);
  };
  const fs::FileInfo meta = file_or_create("db.meta", kMetaSectors);
  const fs::FileInfo wal = file_or_create("wal.log", config_.log_region_sectors);
  meta_base_ = meta.base;
  wal_base_ = wal.base;

  WalConfig wal_config;
  wal_config.region_base = io::BlockAddr{log_device_, wal.base};
  wal_config.region_sectors = config_.log_region_sectors;
  wal_config.group_commit = config_.group_commit;
  wal_config.group_commit_bytes = config_.log_buffer_bytes;
  wal_ = std::make_unique<LogManager>(sim_, driver_, wal_config);
  wal_->set_grow_hook([&filesystem](std::uint64_t new_sectors, std::function<void()> done) {
    filesystem.record_append("wal.log", new_sectors, std::move(done));
  });
  pool_ = std::make_unique<BufferPool>(sim_, config_.buffer_pool_pages, wal_.get());
}

void Database::attach_device(io::DeviceId id, disk::DiskDevice& device) {
  devices_[id.index()] = &device;
}

void Database::enable_direct_logging(core::TrailDriver& trail) {
  direct_trail_ = &trail;
  wal_->set_direct_backend(
      [&trail](std::span<const std::byte> bytes, std::uint64_t cookie,
               std::function<void()> done) {
        trail.append_direct(bytes, cookie, std::move(done));
      },
      [&trail](std::uint64_t cookie) { trail.release_direct_before(cookie); });
}

TableId Database::create_table(const std::string& name, std::uint32_t row_size,
                               std::uint64_t capacity_rows, io::DeviceId device) {
  const std::uint32_t slot_bytes = 1 + 8 + row_size;
  const std::uint32_t slots_per_page = static_cast<std::uint32_t>(kPageSize / slot_bytes);
  if (slots_per_page == 0) throw std::invalid_argument("create_table: row too large");
  const PageNo pages =
      static_cast<PageNo>((capacity_rows + slots_per_page - 1) / slots_per_page);

  disk::Lba base_lba;
  if (auto fit = filesystems_.find(device.index()); fit != filesystems_.end()) {
    const std::string file_name = "tbl." + name;
    if (const auto existing = fit->second->open(file_name)) {
      base_lba = existing->base;
    } else {
      base_lba = fit->second
                     ->create_offline(file_name,
                                      static_cast<std::uint64_t>(pages) * kSectorsPerPage)
                     .base;
    }
  } else {
    disk::Lba& cursor = alloc_cursor_[device.index()];  // starts at 0 for data devices
    base_lba = cursor;
    cursor += static_cast<disk::Lba>(pages) * kSectorsPerPage;
  }
  const io::BlockAddr base{device, base_lba};

  auto file = std::make_unique<PageFile>(driver_, base, pages);
  const std::uint32_t pool_file = pool_->register_file(*file);
  disk::DiskDevice* dev = nullptr;
  if (auto it = devices_.find(device.index()); it != devices_.end()) dev = it->second;

  const auto id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(name, id, row_size, *pool_, pool_file, pages, dev,
                                            file.get()));
  files_.push_back(std::move(file));
  return id;
}

disk::Lba Database::allocate_region(const std::string& name, std::uint64_t sectors,
                                    io::DeviceId device) {
  if (auto fit = filesystems_.find(device.index()); fit != filesystems_.end()) {
    const std::string file_name = "reg." + name;
    if (const auto existing = fit->second->open(file_name)) return existing->base;
    return fit->second->create_offline(file_name, sectors).base;
  }
  disk::Lba& cursor = alloc_cursor_[device.index()];
  const disk::Lba base = cursor;
  cursor += sectors;
  return base;
}

Table& Database::table_named(const std::string& name) {
  for (auto& t : tables_)
    if (t->name() == name) return *t;
  throw std::out_of_range("Database: no table named " + name);
}

Txn& Database::begin() {
  std::unique_ptr<Txn> txn;
  if (spare_txns_.empty()) {
    txn = std::make_unique<Txn>();
  } else {
    txn = std::move(spare_txns_.back());
    spare_txns_.pop_back();
  }
  txn->db_ = this;
  txn->id_ = next_txn_++;
  txn->active_ = true;
  txn->first_lsn_ = kInvalidLsn;
  txn->last_lsn_ = 0;
  Txn& ref = *txn;
  active_txns_[ref.id_] = std::move(txn);
  return ref;
}

void Database::release(Txn& txn) {
  for (const Txn::Pin& pin : txn.pins_) tables_.at(pin.table)->unpin_page(pin.page);
  txn.pins_.clear();
  txn.undo_.clear();
  txn.undo_rows_.clear();
  txn.commit_done_ = nullptr;
  locks_->release_all(txn.id_);
  txn.active_ = false;
  std::unique_ptr<Txn>* slot = active_txns_.find(txn.id_);
  spare_txns_.push_back(std::move(*slot));
  active_txns_.erase(txn.id_);
}

void Database::commit(Txn& txn, sim::Callback<void(bool)> done) {
  if (!txn.active_) throw std::logic_error("Database::commit: txn not active");
  // Read-only transactions have nothing to make durable.
  if (txn.first_lsn_ == kInvalidLsn) {
    ++stats_.commits;
    release(txn);
    sim_.schedule(config_.cpu_per_txn, [done = std::move(done)] {
      if (done) done(true);
    });
    return;
  }
  const TxnId id = txn.id_;
  txn.commit_done_ = std::move(done);
  // Charge the transaction's commit-path compute before the log force.
  sim_.schedule(config_.cpu_per_txn, [this, alive = alive_, id] {
    // A transaction released meanwhile took its continuation along.
    if (!*alive || !active_txns_.contains(id)) return;
    WalRecord commit_rec;
    commit_rec.type = WalRecordType::kCommit;
    commit_rec.txn = id;
    const Lsn lsn = wal_->append(commit_rec);
    finish_commit_at(lsn, id);
  });
}

void Database::finish_commit_at(Lsn lsn, TxnId id) {
  wal_->commit(lsn, [this, id] {
    std::unique_ptr<Txn>* txn = active_txns_.find(id);
    if (txn == nullptr) return;
    const sim::Callback<void(bool)> done = std::move((*txn)->commit_done_);
    ++stats_.commits;
    release(**txn);
    maybe_auto_checkpoint();
    if (done) done(true);
  });
}

void Database::abort(Txn& txn, sim::Callback<void()> done) {
  if (!txn.active_) throw std::logic_error("Database::abort: txn not active");
  // Restore before-images in reverse order.
  Chain chain;
  for (auto it = txn.undo_.rbegin(); it != txn.undo_.rend(); ++it) {
    const Txn::Undo& u = *it;
    const RowView before = RowView(txn.undo_rows_).subspan(u.offset, u.size);
    chain.then([this, &u, before](const Chain::Next& next) {
      Table& t = table(u.table);
      if (u.existed)
        t.apply_image(u.key, before, [next] { next(); });
      else
        t.remove(u.key, [next] { next(); });
    });
  }
  const TxnId id = txn.id_;
  std::move(chain).run([this, id, done = std::move(done)] {
    if (std::unique_ptr<Txn>* txn = active_txns_.find(id)) {
      ++stats_.aborts;
      release(**txn);
    }
    if (done) done();
  });
}

void Database::maybe_auto_checkpoint() {
  if (config_.checkpoint_every_bytes == 0 || checkpoint_running_) return;
  if (wal_->next_lsn() - last_checkpoint_lsn_ < config_.checkpoint_every_bytes) return;
  checkpoint([] {});
}

void Database::checkpoint(std::function<void()> done) {
  if (checkpoint_running_) {
    // Coalesce: the running checkpoint is close enough.
    if (done) done();
    return;
  }
  checkpoint_running_ = true;
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  auto alive = alive_;
  // WAL first, then the page snapshot, then the checkpoint record + meta.
  wal_->flush_all([this, alive, done_shared] {
    if (!*alive) return;
    // The snapshot is the replay point: flush_dirty finishes only once
    // every page dirty now is on disk, pinned ones included (written when
    // their transactions release them). Replay still starts at the first
    // record of any transaction active now, so recovery sees it whole.
    Lsn replay_from = wal_->next_lsn();
    active_txns_.for_each([&replay_from](TxnId, const std::unique_ptr<Txn>& txn) {
      if (txn->first_lsn_ != kInvalidLsn) replay_from = std::min(replay_from, txn->first_lsn_);
    });
    pool_->flush_dirty([this, alive, replay_from, done_shared] {
      if (!*alive) return;
      WalRecord rec;
      rec.type = WalRecordType::kCheckpoint;
      (void)wal_->append(rec);
      wal_->flush_all([this, alive, replay_from, done_shared] {
        if (!*alive) return;
        write_meta(replay_from, [this, alive, replay_from, done_shared] {
          if (!*alive) return;
          last_checkpoint_lsn_ = replay_from;
          wal_->set_truncate_point(replay_from);
          checkpoint_running_ = false;
#if defined(TRAIL_AUDIT)
          quiesce_audit("checkpoint");
#endif
          if (*done_shared) (*done_shared)();
        });
      });
    });
  });
}

void Database::write_meta(Lsn checkpoint_lsn, std::function<void()> done) {
  auto page = std::make_shared<std::vector<std::byte>>(kPageSize);
  auto& p = *page;
  const char magic[8] = {'T', 'R', 'A', 'I', 'L', 'D', 'B', '1'};
  std::memcpy(p.data(), magic, 8);
  for (int i = 0; i < 8; ++i) p[8 + static_cast<std::size_t>(i)] =
      std::byte(checkpoint_lsn >> (8 * i) & 0xFF);
  const std::uint32_t crc =
      core::crc32(std::span<const std::byte>(p.data(), 16));
  for (int i = 0; i < 4; ++i) p[16 + static_cast<std::size_t>(i)] = std::byte(crc >> (8 * i) & 0xFF);
  driver_.submit_write(io::BlockAddr{log_device_, meta_base_}, kMetaSectors, p,
                       [page, done = std::move(done)] {
                         if (done) done();
                       });
}

namespace {

/// Start one asynchronous step and drive the simulator until it is done.
/// Recovery runs at boot, before any transaction, as TrailDriver::mount()
/// does.
void await(sim::Simulator& sim, const std::function<void(std::function<void()>)>& start) {
  bool done = false;
  start([&done] { done = true; });
  while (!done)
    if (!sim.step()) throw std::runtime_error("Database::recover: simulation stalled");
}

/// The checkpoint LSN a meta page names, if it holds a valid one.
std::optional<Lsn> parse_meta(std::span<const std::byte> p) {
  if (std::memcmp(p.data(), "TRAILDB1", 8) != 0) return std::nullopt;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(p[16 + static_cast<std::size_t>(i)]) << (8 * i);
  if (stored != core::crc32(p.first(16))) return std::nullopt;
  Lsn lsn = 0;
  for (int i = 0; i < 8; ++i) lsn |= static_cast<Lsn>(p[8 + static_cast<std::size_t>(i)]) << (8 * i);
  return lsn;
}

constexpr std::uint64_t kWalReadSectors = 2048;
/// An upper bound on one encoded WAL record (its row length is a u16).
constexpr std::size_t kMaxWalRecordBytes = 64 + 0xFFFF;

}  // namespace

Database::RecoveryReport Database::recover() {
  RecoveryReport report;
  for (std::size_t t = 0; t < tables_.size(); ++t)
    tables_[t]->rebuild_index([&](PageNo first, std::span<std::byte> out) {
      await(sim_, [&](std::function<void()> done) {
        files_[t]->read_pages(first, out, std::move(done));
      });
    });
  const auto read_log_device = [this](disk::Lba lba, std::span<std::byte> out) {
    await(sim_, [&](std::function<void()> done) {
      driver_.submit_read(io::BlockAddr{log_device_, lba},
                          static_cast<std::uint32_t>(out.size() / disk::kSectorSize), out,
                          std::move(done));
    });
  };

  std::vector<std::byte> meta(kPageSize);
  read_log_device(meta_base_, meta);
  report.checkpoint_lsn = parse_meta(meta).value_or(0);
  last_checkpoint_lsn_ = report.checkpoint_lsn;

  const Lsn start_sector = report.checkpoint_lsn / disk::kSectorSize;
  const Lsn start_byte = start_sector * disk::kSectorSize;
  std::vector<std::byte> log_bytes;
  if (direct_trail_ != nullptr) {
    // Direct mode: the WAL bytes live in the Trail records its recovery
    // adopted. Lay each record's payload at its cookie offset to rebuild
    // the byte stream from the checkpoint onward.
    Lsn max_end = report.checkpoint_lsn;
    for (const core::RecoveredRecord& rec : direct_trail_->recovered_direct_log()) {
      const Lsn end = static_cast<Lsn>(rec.header.entries.back().data_lba) + disk::kSectorSize;
      max_end = std::max(max_end, end);
    }
    log_bytes.assign(static_cast<std::size_t>(max_end - start_byte + disk::kSectorSize),
                     std::byte{0});
    for (const core::RecoveredRecord& rec : direct_trail_->recovered_direct_log()) {
      const Lsn cookie = rec.header.entries.front().data_lba;
      if (cookie + rec.payload.size() <= start_byte) continue;
      const Lsn dst = cookie > start_byte ? cookie - start_byte : 0;
      const std::size_t skip = cookie > start_byte ? 0 : static_cast<std::size_t>(start_byte - cookie);
      if (skip >= rec.payload.size()) continue;
      std::memcpy(log_bytes.data() + dst, rec.payload.data() + skip,
                  rec.payload.size() - skip);
    }
  }
  // Append the WAL region's next chunk from the checkpoint's sector on;
  // false once the region is read (always, in direct mode).
  const auto read_more = [&] {
    const std::uint64_t have = log_bytes.size() / disk::kSectorSize;
    const std::uint64_t left =
        direct_trail_ != nullptr ? 0 : config_.log_region_sectors - start_sector - have;
    if (left == 0) return false;
    log_bytes.resize((have + std::min(left, kWalReadSectors)) * disk::kSectorSize);
    read_log_device(wal_base_ + start_sector + have,
                    std::span<std::byte>(log_bytes).subspan(have * disk::kSectorSize));
    return true;
  };
  (void)read_more();

  // Decode the records; each committed transaction's changes join the
  // redo list in commit order.
  std::map<TxnId, std::vector<WalRecord>> in_flight;
  std::vector<WalRecord> redo;
  std::size_t off = report.checkpoint_lsn % disk::kSectorSize;
  Lsn log_end = report.checkpoint_lsn;
  for (;;) {
    auto decoded = LogManager::decode(std::span<const std::byte>(log_bytes).subspan(off));
    if (!decoded) {
      // A record may run past the bytes read so far.
      if (off + kMaxWalRecordBytes > log_bytes.size() && read_more()) continue;
      break;
    }
    WalRecord rec = std::move(decoded->first);
    const std::size_t len = decoded->second;
    // A stale record from an older generation of the region ends the log.
    const Lsn expect_lsn = start_byte + off;
    if (rec.lsn != expect_lsn) break;
    off += len;
    log_end = expect_lsn + len;
    ++report.records_scanned;

    switch (rec.type) {
      case WalRecordType::kUpdate:
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
        in_flight[rec.txn].push_back(std::move(rec));
        break;
      case WalRecordType::kCommit: {
        auto txn_it = in_flight.find(rec.txn);
        if (txn_it != in_flight.end()) {
          std::ranges::move(txn_it->second, std::back_inserter(redo));
          in_flight.erase(txn_it);
        }
        ++report.txns_replayed;
        break;
      }
      case WalRecordType::kCheckpoint:
        break;
    }
  }

  // Resume the WAL where the valid log ends before redoing, so every page
  // the redo dirties is bound to a durable LSN.
  if (direct_trail_ != nullptr) {
    // Records at or below the replayed end stay live until the next
    // checkpoint truncates them.
    wal_->restore_direct(log_end);
  } else {
    // The partial tail sector's bytes are re-buffered so the next flush
    // rewrites it coherently.
    const Lsn tail_base = log_end / disk::kSectorSize * disk::kSectorSize;
    wal_->restore(log_end,
                  std::vector<std::byte>(
                      log_bytes.begin() + static_cast<std::ptrdiff_t>(tail_base - start_byte),
                      log_bytes.begin() + static_cast<std::ptrdiff_t>(log_end - start_byte)));
  }

  for (const WalRecord& r : redo) {
    Table& t = *tables_.at(r.table);
    await(sim_, [&](std::function<void()> done) {
      if (r.type == WalRecordType::kDelete)
        t.remove(r.key, std::move(done));
      else
        t.apply_image(r.key, r.row, std::move(done));
    });
    ++report.rows_applied;
  }
  // Make the redone pages durable before the first transaction runs.
  await(sim_, [&](std::function<void()> done) { pool_->flush_dirty(std::move(done)); });
#if defined(TRAIL_AUDIT)
  quiesce_audit("recover");
#endif
  return report;
}

void Database::run_audit(audit::Report& report, bool quiescent) const {
  // A fuzzy checkpoint can complete while transactions are active; the
  // strict quiescent state only holds once none are.
  const bool idle = quiescent && active_txns_.size() == 0;
  wal_->audit(report, idle);
  pool_->audit(report, idle);
  audit::Check& check = report.check("db.txns");
  active_txns_.for_each([&check](TxnId id, const std::unique_ptr<Txn>& txn) {
    check.require(txn->active_, "inactive transaction still registered");
    check.require(txn->id_ == id, "transaction id disagrees with its registry key");
  });
  check.require(last_checkpoint_lsn_ <= wal_->durable_lsn(),
                "checkpoint LSN beyond WAL durability");
}

void Database::quiesce_audit(const char* where) const {
  audit::Report report;
  run_audit(report, /*quiescent=*/true);
  if (!report.ok())
    throw std::logic_error(std::string("Database: invariant audit failed at ") + where +
                           "\n" + report.to_string());
}

}  // namespace trail::db
