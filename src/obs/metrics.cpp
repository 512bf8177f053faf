#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace trail::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(std::int64_t v) {
  if (v < kSubCount) return static_cast<int>(v < 0 ? 0 : v);
  const auto u = static_cast<std::uint64_t>(v);
  const int exp = 63 - std::countl_zero(u);  // floor(log2 v) >= kSubBits
  const int shift = exp - kSubBits;
  const int sub = static_cast<int>((u >> shift) & (kSubCount - 1));
  const int octave = exp - kSubBits + 1;
  return octave * kSubCount + sub;
}

std::int64_t Histogram::bucket_lower(int index) {
  if (index < kSubCount) return index;
  const int octave = index / kSubCount;
  const int sub = index % kSubCount;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(kSubCount + sub)
                                   << (octave - 1));
}

std::int64_t Histogram::bucket_mid(int index) {
  if (index < kSubCount) return index;  // exact buckets
  const int octave = index / kSubCount;
  const std::int64_t width = std::int64_t{1} << (octave - 1);
  return bucket_lower(index) + width / 2;
}

void Histogram::record(std::int64_t v) {
  if (v < 0) v = 0;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  ++count_;
  sum_ += v;
  ++counts_[bucket_index(v)];
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (std::isnan(p)) throw std::invalid_argument("Histogram::percentile: NaN");
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max());
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const auto mid = static_cast<double>(bucket_mid(i));
      // The representative never escapes the observed range.
      return std::clamp(mid, static_cast<double>(min()), static_cast<double>(max()));
    }
  }
  return static_cast<double>(max());  // unreachable: counts_ sums to count_
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.try_emplace(std::string(name)).first;
  return it->second;
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    // Entry longer than the stack buffer (long names, wide numbers):
    // re-format into the string itself so nothing is truncated.
    const auto old_size = out.size();
    out.resize(old_size + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(n) + 1, fmt, args_copy);
    out.resize(old_size + static_cast<std::size_t>(n));
  }
  va_end(args_copy);
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    append_fmt(out, "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
               static_cast<unsigned long long>(c.value()));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    append_fmt(out, "%s\"%s\":{\"value\":%lld,\"max\":%lld}", first ? "" : ",", name.c_str(),
               static_cast<long long>(g.value()), static_cast<long long>(g.max()));
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    append_fmt(out,
               "%s\"%s\":{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
               "\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f}",
               first ? "" : ",", name.c_str(), static_cast<unsigned long long>(h.count()),
               static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
               static_cast<long long>(h.max()), h.mean(), h.percentile(50), h.percentile(90),
               h.percentile(99));
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

// "shard.<k>.rest" → (k, "rest"); anything else (including the
// array-level "shard.split_writes" style names, where no digit run
// follows) stays unlabeled.
bool split_shard_prefix(const std::string& name, int& shard, std::string& base) {
  if (name.rfind("shard.", 0) != 0) return false;
  std::size_t i = 6;
  int v = 0;
  std::size_t digits = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    v = v * 10 + (name[i] - '0');
    ++i;
    ++digits;
  }
  if (digits == 0 || digits > 6 || i + 1 >= name.size() || name[i] != '.') return false;
  shard = v;
  base = name.substr(i + 1);
  return true;
}

std::string openmetrics_name(const std::string& base) {
  std::string out = "trail_";
  for (const char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void append_labels(std::string& out, int shard, const char* quantile) {
  if (shard < 0 && quantile == nullptr) return;
  out += '{';
  bool first = true;
  if (shard >= 0) {
    append_fmt(out, "shard=\"%d\"", shard);
    first = false;
  }
  if (quantile != nullptr) append_fmt(out, "%squantile=\"%s\"", first ? "" : ",", quantile);
  out += '}';
}

/// Group one metric kind into families: family name → shard (-1 =
/// unlabeled, ordered first) → metric. Family names are map-ordered and
/// shard keys numeric, so emission order is fully deterministic.
template <typename T>
std::map<std::string, std::map<int, const T*>> group_families(
    const std::map<std::string, T, std::less<>>& src) {
  std::map<std::string, std::map<int, const T*>> fams;
  for (const auto& [name, m] : src) {
    int shard = -1;
    std::string base = name;
    (void)split_shard_prefix(name, shard, base);
    fams[openmetrics_name(base)][shard] = &m;
  }
  return fams;
}

}  // namespace

std::string MetricsRegistry::to_openmetrics() const {
  std::string out;
  for (const auto& [fam, samples] : group_families(counters_)) {
    append_fmt(out, "# TYPE %s counter\n", fam.c_str());
    for (const auto& [shard, c] : samples) {
      out += fam;
      out += "_total";
      append_labels(out, shard, nullptr);
      append_fmt(out, " %llu\n", static_cast<unsigned long long>(c->value()));
    }
  }
  for (const auto& [fam, samples] : group_families(gauges_)) {
    append_fmt(out, "# TYPE %s gauge\n", fam.c_str());
    for (const auto& [shard, g] : samples) {
      out += fam;
      append_labels(out, shard, nullptr);
      append_fmt(out, " %lld\n", static_cast<long long>(g->value()));
    }
    // The high-watermark rides as a sibling gauge family.
    append_fmt(out, "# TYPE %s_max gauge\n", fam.c_str());
    for (const auto& [shard, g] : samples) {
      out += fam;
      out += "_max";
      append_labels(out, shard, nullptr);
      append_fmt(out, " %lld\n", static_cast<long long>(g->max()));
    }
  }
  for (const auto& [fam, samples] : group_families(histograms_)) {
    append_fmt(out, "# TYPE %s summary\n", fam.c_str());
    for (const auto& [shard, h] : samples) {
      static constexpr struct {
        const char* label;
        double p;
      } kQuantiles[] = {{"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}};
      for (const auto& q : kQuantiles) {
        out += fam;
        append_labels(out, shard, q.label);
        append_fmt(out, " %.3f\n", h->percentile(q.p));
      }
      out += fam;
      out += "_sum";
      append_labels(out, shard, nullptr);
      append_fmt(out, " %lld\n", static_cast<long long>(h->sum()));
      out += fam;
      out += "_count";
      append_labels(out, shard, nullptr);
      append_fmt(out, " %llu\n", static_cast<unsigned long long>(h->count()));
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace trail::obs
