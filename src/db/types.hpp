// Shared primitive types for the embedded transaction engine.
//
// The engine reproduces the role Berkeley DB plays in the paper's §5.2
// evaluation: write-ahead logging with an O_SYNC log file (one flush per
// commit, or group commit by log-buffer threshold), steal-free buffer
// management over fixed-size pages, record-level exclusive locking, and
// redo-only crash recovery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "disk/types.hpp"

namespace trail::db {

/// Byte offset into the logical write-ahead log (monotonic).
using Lsn = std::uint64_t;
inline constexpr Lsn kInvalidLsn = ~0ULL;

using TxnId = std::uint64_t;
using TableId = std::uint16_t;
using Key = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::uint32_t kSectorsPerPage =
    static_cast<std::uint32_t>(kPageSize / disk::kSectorSize);

using PageNo = std::uint32_t;

using RowBuf = std::vector<std::byte>;
/// A row image someone else owns: a page frame's bytes, or a RowBuf.
using RowView = std::span<const std::byte>;

}  // namespace trail::db
