#include "db/wal.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "audit/check.hpp"
#include "core/crc32.hpp"

namespace trail::db {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 1;  // length, crc, lsn, type

/// Store the low `bytes` bytes of `x` at `p`, little-endian; returns the
/// position after them.
std::byte* put_le(std::byte* p, std::uint64_t x, int bytes) {
  for (int i = 0; i < bytes; ++i) *p++ = std::byte(x >> (8 * i) & 0xFF);
  return p;
}
bool has_row(WalRecordType type) {
  return type == WalRecordType::kUpdate || type == WalRecordType::kInsert ||
         type == WalRecordType::kDelete;
}
std::uint16_t get_u16(std::span<const std::byte> d, std::size_t off) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(d[off]) |
                                    static_cast<std::uint16_t>(d[off + 1]) << 8);
}
std::uint32_t get_u32(std::span<const std::byte> d, std::size_t off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(d[off + i]) << (8 * i);
  return x;
}
std::uint64_t get_u64(std::span<const std::byte> d, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(d[off + i]) << (8 * i);
  return x;
}

}  // namespace

LogManager::LogManager(sim::Simulator& sim, io::BlockDriver& driver, WalConfig config)
    : sim_(sim), driver_(driver), config_(config) {
  if (config_.region_sectors == 0) throw std::invalid_argument("LogManager: empty region");
}

std::size_t LogManager::encode(const WalRecord& record, Lsn lsn, std::vector<std::byte>& out) {
  const std::size_t payload = 8 + (has_row(record.type) ? 2 + 8 + 2 + record.row.size() : 0);
  const std::size_t length = kHeaderBytes + payload;
  const std::size_t at = out.size();
  out.resize(at + length);
  std::byte* p = out.data() + at;
  p = put_le(p, length, 4);
  p += 4;  // crc, patched below
  p = put_le(p, lsn, 8);
  *p++ = std::byte(static_cast<std::uint8_t>(record.type));
  p = put_le(p, record.txn, 8);
  if (has_row(record.type)) {
    p = put_le(p, record.table, 2);
    p = put_le(p, record.key, 8);
    p = put_le(p, record.row.size(), 2);
    if (!record.row.empty()) std::memcpy(p, record.row.data(), record.row.size());
  }
  // The CRC covers everything after the crc field itself (lsn, type,
  // payload) so corrupted/stale headers are rejected too.
  const std::uint32_t crc =
      core::crc32(std::span<const std::byte>(out.data() + at + 8, length - 8));
  put_le(out.data() + at + 4, crc, 4);
  return length;
}

std::optional<std::pair<WalRecord, std::size_t>> LogManager::decode(
    std::span<const std::byte> data) {
  if (data.size() < kHeaderBytes) return std::nullopt;
  const std::uint32_t length = get_u32(data, 0);
  if (length < kHeaderBytes || length > data.size()) return std::nullopt;
  const std::uint32_t crc = get_u32(data, 4);
  if (core::crc32(data.subspan(8, length - 8)) != crc) return std::nullopt;
  const std::span<const std::byte> payload = data.subspan(kHeaderBytes, length - kHeaderBytes);

  WalRecord rec;
  rec.lsn = get_u64(data, 8);
  const auto type = static_cast<std::uint8_t>(data[16]);
  if (type < 1 || type > 5) return std::nullopt;
  rec.type = static_cast<WalRecordType>(type);
  if (payload.size() < 8) return std::nullopt;
  rec.txn = get_u64(payload, 0);
  if (has_row(rec.type)) {
    if (payload.size() < 8 + 2 + 8 + 2) return std::nullopt;
    rec.table = get_u16(payload, 8);
    rec.key = get_u64(payload, 10);
    const std::uint16_t row_len = get_u16(payload, 18);
    if (payload.size() < 20u + row_len) return std::nullopt;
    rec.row.assign(payload.begin() + 20, payload.begin() + 20 + row_len);
  }
  return std::make_pair(std::move(rec), static_cast<std::size_t>(length));
}

Lsn LogManager::append(const WalRecord& record) {
  const Lsn lsn = next_lsn_;
  next_lsn_ += encode(record, lsn, buffer_);
  ++stats_.appends;
  return lsn;
}

void LogManager::commit(Lsn lsn, Done done) {
  if (!config_.group_commit) {
    // O_SYNC semantics: wait until this commit's records are on disk.
    waiters_.push_back(Waiter{lsn + 1, std::move(done), sim_.now()});
    start_flush();
    return;
  }
  // Group commit: flush only when the buffer exceeds the threshold; the
  // flushing transaction waits, everyone else commits with deferred
  // durability.
  if (next_lsn_ - durable_lsn_ >= config_.group_commit_bytes) {
    waiters_.push_back(Waiter{lsn + 1, std::move(done), sim_.now()});
    start_flush();
    return;
  }
  // Deferred durability: the transaction reports success now; its records
  // reach disk with a later group flush. Track the exposure window.
  deferred_commits_.emplace_back(lsn + 1, sim_.now());
  if (obs_ != nullptr && obs_->tracer.enabled())
    obs_->tracer.instant("wal.deferred_commit", "wal", obs::kWalTid);
  if (done) done();
}

void LogManager::flush_all(Done done) {
  if (durable_lsn_ >= next_lsn_) {
    if (done) done();
    return;
  }
  waiters_.push_back(Waiter{next_lsn_, std::move(done), sim_.now()});
  start_flush();
}

void LogManager::flush_until(Lsn target, Done done) {
  if (target > next_lsn_) target = next_lsn_;
  if (durable_lsn_ >= target) {
    if (done) done();
    return;
  }
  // A page's WAL bound can lie below a commit already waiting: keep the
  // waiters ordered by target so this one completes with the first flush
  // that covers it.
  const auto at = std::ranges::upper_bound(waiters_, target, {}, &Waiter::target);
  waiters_.insert(at, Waiter{target, std::move(done), sim_.now()});
  start_flush();
}

void LogManager::start_flush() {
  if (flush_in_flight_) return;  // the active flush's completion re-checks
  if (durable_lsn_ >= next_lsn_) {
    complete_waiters();
    return;
  }

  if (direct_append_) {
    // §6 direct logging: append exactly the new bytes as one Trail record
    // burst — no file-system blocks, no data-disk copy.
    const Lsn from = durable_lsn_;
    if (from < buffer_base_) throw std::logic_error("LogManager: direct bytes discarded early");
    std::vector<std::byte> bytes(buffer_.begin() +
                                     static_cast<std::ptrdiff_t>(from - buffer_base_),
                                 buffer_.end());
    flush_in_flight_ = true;
    flush_target_ = next_lsn_;
    ++stats_.flushes;
    stats_.flushed_sectors += (bytes.size() + disk::kSectorSize - 1) / disk::kSectorSize;
    auto alive = alive_;
    const sim::TimePoint submit_time = sim_.now();
    direct_append_(bytes, from, [this, alive, submit_time] {
      if (!*alive) return;
      if (obs_ != nullptr && obs_->tracer.enabled())
        obs_->tracer.complete("wal.flush", "wal", submit_time, sim_.now() - submit_time,
                              obs::kWalTid);
      note_flush_span(submit_time);
      stats_.flush_io_time += sim_.now() - submit_time;
      stats_.flushed_bytes += flush_target_ - durable_lsn_;
      durable_lsn_ = flush_target_;
      flush_in_flight_ = false;
      // Direct appends never rewrite a tail: drop everything durable.
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(durable_lsn_ - buffer_base_));
      buffer_base_ = durable_lsn_;
      complete_waiters();
      if (!waiters_.empty()) start_flush();
    });
    return;
  }

  // Write whole sectors from the sector containing durable_lsn_ through
  // the sector containing next_lsn_ - 1 (tail sector rewritten, like an
  // O_SYNC append of a partial block).
  const Lsn from_sector = durable_lsn_ / disk::kSectorSize;
  const Lsn to_sector = (next_lsn_ - 1) / disk::kSectorSize;
  const auto sectors = static_cast<std::uint32_t>(to_sector - from_sector + 1);
  if (to_sector >= config_.region_sectors)
    throw std::runtime_error("LogManager: log region exhausted (checkpoint too rare)");

  std::vector<std::byte> image(static_cast<std::size_t>(sectors) * disk::kSectorSize);
  const Lsn image_base = from_sector * disk::kSectorSize;
  // buffer_ holds [buffer_base_, next_lsn_); image needs [image_base, ...).
  if (image_base < buffer_base_)
    throw std::logic_error("LogManager: flushed bytes discarded too early");
  std::memcpy(image.data(), buffer_.data() + (image_base - buffer_base_),
              static_cast<std::size_t>(next_lsn_ - image_base));

  flush_in_flight_ = true;
  flush_target_ = next_lsn_;
  ++stats_.flushes;
  stats_.flushed_sectors += sectors;

  // Issue the flush the way an O_SYNC write(2) over an ext2 file reaches
  // the block layer: split into file-system blocks, ALL submitted at once,
  // completing when the last block is durable. On the standard driver
  // each consecutive block still misses the rotation (the head has passed
  // its start by the time the previous completion is processed); under
  // Trail the burst of blocks coalesces into one batched log write —
  // §5.1: "the file system tends to split a large user-level file access
  // request into multiple consecutive small low-level write requests.
  // Therefore the batched write optimization is triggered more
  // frequently".
  struct FlushState {
    std::vector<std::byte> image;
    std::uint32_t outstanding = 0;
    sim::TimePoint submit_time;
  };
  auto fs = std::make_shared<FlushState>();
  fs->image = std::move(image);
  fs->submit_time = sim_.now();

  auto alive = alive_;
  auto on_chunk_done = [this, alive, fs] {
    if (!*alive) return;
    if (--fs->outstanding > 0) return;
    auto finish = [this, alive, fs] {
      if (!*alive) return;
      if (obs_ != nullptr && obs_->tracer.enabled())
        obs_->tracer.complete("wal.flush", "wal", fs->submit_time,
                              sim_.now() - fs->submit_time, obs::kWalTid);
      note_flush_span(fs->submit_time);
      stats_.flush_io_time += sim_.now() - fs->submit_time;
      stats_.flushed_bytes += flush_target_ - durable_lsn_;
      durable_lsn_ = flush_target_;
      flush_in_flight_ = false;
      // Trim the buffer to full flushed sectors (keep the partial tail).
      const Lsn keep_from = durable_lsn_ / disk::kSectorSize * disk::kSectorSize;
      if (keep_from > buffer_base_) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(keep_from - buffer_base_));
        buffer_base_ = keep_from;
      }
      complete_waiters();
      // More records may have arrived during the flush.
      if (!waiters_.empty()) start_flush();
    };
    // O_SYNC: a flush that grew the log file (every append does — i_size
    // is byte-granular) must also make the inode durable before
    // completing (the second write §5.2's EXT2 rows pay).
    if (on_grow_ && flush_target_ > grown_bytes_) {
      grown_bytes_ = flush_target_;
      const std::uint64_t new_sectors =
          (flush_target_ + disk::kSectorSize - 1) / disk::kSectorSize;
      on_grow_(new_sectors, finish);
    } else {
      finish();
    }
  };

  const std::uint32_t chunk_size =
      config_.sync_chunk_sectors == 0 ? sectors : config_.sync_chunk_sectors;
  fs->outstanding = (sectors + chunk_size - 1) / chunk_size;
  std::uint32_t issued = 0;
  while (issued < sectors) {
    const std::uint32_t chunk = std::min(sectors - issued, chunk_size);
    io::BlockAddr addr = config_.region_base;
    addr.lba = config_.region_base.lba + from_sector + issued;
    const std::span<const std::byte> data(
        fs->image.data() + static_cast<std::size_t>(issued) * disk::kSectorSize,
        static_cast<std::size_t>(chunk) * disk::kSectorSize);
    driver_.submit_write(addr, chunk, data, on_chunk_done);
    issued += chunk;
  }
}

void LogManager::restore_direct(Lsn lsn) {
  next_lsn_ = lsn;
  durable_lsn_ = lsn;
  buffer_.clear();
  buffer_base_ = lsn;
  flush_in_flight_ = false;
  waiters_.clear();
  deferred_commits_.clear();
}

void LogManager::restore(Lsn lsn, std::vector<std::byte> tail) {
  const Lsn tail_base = lsn / disk::kSectorSize * disk::kSectorSize;
  if (tail.size() != lsn - tail_base)
    throw std::invalid_argument("LogManager::restore: tail size mismatch");
  next_lsn_ = lsn;
  durable_lsn_ = lsn;
  buffer_ = std::move(tail);
  buffer_base_ = tail_base;
  flush_in_flight_ = false;
  waiters_.clear();
}

void LogManager::audit(audit::Report& report, bool quiescent) const {
  audit::Check& check = report.check("wal.sequence");
  check.require(durable_lsn_ <= next_lsn_, "durable LSN ahead of the append point");
  check.require(truncate_lsn_ <= durable_lsn_, "truncate point ahead of durability");
  check.require(buffer_base_ <= durable_lsn_,
                "buffered bytes start beyond the durable point");
  check.require(buffer_.size() == next_lsn_ - buffer_base_,
                "buffer size disagrees with its LSN span");
  if (flush_in_flight_)
    check.require(durable_lsn_ <= flush_target_ && flush_target_ <= next_lsn_,
                  "in-flight flush target outside (durable, next]");
  Lsn prev_target = 0;
  for (const Waiter& w : waiters_) {
    // complete_waiters() pops in order, so targets are FIFO-monotone and
    // nothing already-durable may linger.
    check.require(w.target > durable_lsn_, "waiter for an already-durable LSN");
    check.require(w.target <= next_lsn_, "waiter beyond the append point");
    check.require(w.target >= prev_target, "waiter targets out of FIFO order");
    prev_target = w.target;
  }
  if (quiescent) {
    check.require(!flush_in_flight_, "flush still in flight at a quiesce point");
    check.require(waiters_.empty(), "commit waiters pending at a quiesce point");
    check.require(durable_lsn_ == next_lsn_, "undurable log bytes at a quiesce point");
    check.require(deferred_commits_.empty(),
                  "deferred group commits unaccounted at a quiesce point");
  }
}

void LogManager::note_flush_span(sim::TimePoint submit_time) {
  if (h_flush_ != nullptr) h_flush_->record(sim_.now() - submit_time);
}

void LogManager::complete_waiters() {
  while (!deferred_commits_.empty() && deferred_commits_.front().first <= durable_lsn_) {
    stats_.durability_lag += sim_.now() - deferred_commits_.front().second;
    ++stats_.lag_samples;
    deferred_commits_.pop_front();
  }
  while (!waiters_.empty() && waiters_.front().target <= durable_lsn_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    stats_.flush_wait += sim_.now() - w.since;
    if (h_commit_wait_ != nullptr) h_commit_wait_->record(sim_.now() - w.since);
    if (w.done) w.done();
  }
}

}  // namespace trail::db
