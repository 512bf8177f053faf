#include "audit/acked_oracle.hpp"

#include <algorithm>
#include <cstring>

namespace trail::audit {

namespace {

bool same(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

std::size_t AckedOracle::submitted(std::uint16_t device, disk::Lba lba,
                                   std::span<const std::byte> data) {
  const std::size_t ticket = writes_.size();
  writes_.push_back(Write{{data.begin(), data.end()}, ++clock_, std::nullopt});
  for (std::size_t i = 0; i * disk::kSectorSize < data.size(); ++i)
    sectors_[{device, lba + i}].writes.emplace_back(ticket, i * disk::kSectorSize);
  return ticket;
}

void AckedOracle::acked(std::size_t ticket) { writes_.at(ticket).acked = ++clock_; }

AckedOracle::Verdict AckedOracle::check(Sector sector, std::span<const std::byte> got) const {
  const auto it = sectors_.find(sector);
  if (it == sectors_.end()) return Verdict::kOk;  // never written, never read back
  const History& h = it->second;
  const auto content = [&](const std::pair<std::size_t, std::size_t>& w) {
    return std::span<const std::byte>(writes_[w.first].data).subspan(w.second, disk::kSectorSize);
  };
  // The newest submission among this sector's acknowledged writes: an
  // acked write whose ack precedes it has been superseded.
  std::optional<std::uint64_t> last_acked_submit;
  for (const auto& w : h.writes)
    if (writes_[w.first].acked)
      last_acked_submit = std::max(last_acked_submit.value_or(0), writes_[w.first].submitted);
  bool stale = false;
  for (const auto& w : h.writes) {
    if (!same(content(w), got)) continue;
    const Write& write = writes_[w.first];
    if (!write.acked || !last_acked_submit || *write.acked > *last_acked_submit)
      return Verdict::kOk;
    stale = true;
  }
  if (h.base && same(*h.base, got)) {
    if (!last_acked_submit) return Verdict::kOk;
    stale = true;
  }
  return stale ? Verdict::kStale : Verdict::kLost;
}

void AckedOracle::mounted(Sector sector, std::span<const std::byte> got) {
  History& h = sectors_[sector];
  h.base.emplace(got.begin(), got.end());
  h.writes.clear();
}

}  // namespace trail::audit
