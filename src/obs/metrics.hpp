// Metrics primitives for the observability layer (trail::obs).
//
// The paper's evaluation lives on latency distributions and driver
// counters; this module provides the HdrHistogram-style substrate for
// them: named counters, gauges, and fixed-bucket log-scale histograms
// with O(1) record, exact count/sum/min/max, and p50/p90/p99 without
// retaining samples.
//
// Thread safety: none inside — these are single-writer cells, as cheap
// as the plain integers they hold. The simulation thread owns every
// metric except the MPSC front-end's `mpsc.*` cells, which producer
// threads write only while holding the SubmissionQueue's mutex (its
// pointer annotations make Clang prove it). Reporting (to_json /
// to_openmetrics) reads every cell, so it runs once no other thread
// can write one: after the producers are joined.
//
// All values are plain int64 "units"; latency call sites record
// simulated nanoseconds (record(Duration) does so directly) and read
// back through the *_ms accessors. Bucketing is log-linear: 32 exact
// buckets below 32, then 32 sub-buckets per power of two, bounding the
// relative quantization error of any reported percentile by 1/64.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace trail::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, resident pages); tracks the high
/// watermark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void add(std::int64_t d) { set(value_ + d); }
  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bucket log-scale histogram over non-negative int64 values.
/// record() is O(1); percentiles walk the bucket array (O(#buckets),
/// reporting-path only). min/max/sum/count are exact; a mid-bucket
/// percentile is off by at most 1/64 of its value.
class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr int kSubCount = 1 << kSubBits;
  static constexpr int kBucketCount = (64 - kSubBits + 1) * kSubCount;

  void record(std::int64_t v);
  void record(sim::Duration d) { record(d.ns()); }  // units = ns

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  /// Nearest-rank percentile, p in [0,100]; returns the representative
  /// (mid-bucket) value, exact at p=0 (min) and p=100 (max). 0 if empty.
  [[nodiscard]] double percentile(double p) const;

  // Duration-flavoured accessors for latency histograms recorded in ns.
  [[nodiscard]] double mean_ms() const { return mean() / 1e6; }
  [[nodiscard]] double min_ms() const { return static_cast<double>(min()) / 1e6; }
  [[nodiscard]] double max_ms() const { return static_cast<double>(max()) / 1e6; }
  [[nodiscard]] double percentile_ms(double p) const { return percentile(p) / 1e6; }

  /// Bucket index for a value (exposed for boundary tests).
  [[nodiscard]] static int bucket_index(std::int64_t v);
  /// Inclusive lower bound of a bucket.
  [[nodiscard]] static std::int64_t bucket_lower(int index);
  /// Representative (midpoint) value reported for a bucket.
  [[nodiscard]] static std::int64_t bucket_mid(int index);

 private:
  // min_/max_ start as sentinels so record() needs no first-sample
  // branch; the accessors report 0 until count() > 0.
  std::uint64_t counts_[kBucketCount] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = INT64_MAX;
  std::int64_t max_ = INT64_MIN;
};

/// Named metrics, shared by every instrumented layer. References handed
/// out are stable for the registry's lifetime (node-based storage), so
/// hot paths cache them at attach time and never look names up again.
/// Iteration and the JSON dump are name-ordered, so two identical runs
/// serialize identically.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,mean,p50,p90,p99},...}}.
  [[nodiscard]] std::string to_json() const;

  /// Deterministic OpenMetrics text exposition. Dots in metric names
  /// become underscores under a `trail_` namespace; the sharded stack's
  /// `shard.<k>.` name-prefix convention is lifted into a
  /// `shard="<k>"` label so per-shard series form one family. Counters
  /// emit `_total` samples, gauges a value plus a `_max` watermark
  /// family, histograms OpenMetrics summaries (quantile 0.5/0.9/0.99 +
  /// `_sum`/`_count`). Families and samples are name-ordered (shard
  /// label numerically), so equal registries export equal bytes.
  [[nodiscard]] std::string to_openmetrics() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace trail::obs
