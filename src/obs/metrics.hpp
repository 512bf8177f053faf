// Metrics primitives for the observability layer (trail::obs).
//
// The paper's evaluation lives on latency distributions and driver
// counters; this module provides the HdrHistogram-style substrate for
// them: named counters, gauges, and fixed-bucket log-scale histograms
// with O(1) record, exact count/sum/min/max, and p50/p90/p99 without
// retaining samples.
//
// Thread safety: the MPSC submission front-end records admission
// metrics from real producer threads, so every primitive here is safe
// for concurrent recording — Counter/Gauge/Histogram mutate through
// relaxed atomics (commutative updates: sums, counts, bucket
// increments, CAS min/max), and the registry's name→metric maps are
// guarded by a trail::sync::Mutex so registration can race with
// recording on other metrics. Recording never takes a lock. Reporting
// (to_json / to_openmetrics / percentile) is meant for quiesce points
// — it is race-free, but a snapshot taken mid-recording may mix values
// from different instants. Single-threaded behaviour (values, exports)
// is bit-for-bit identical to the pre-atomic implementation.
//
// All values are plain int64 "units"; latency call sites record
// simulated nanoseconds (record(Duration) does so directly) and read
// back through the *_ms accessors. Bucketing is log-linear: 32 exact
// buckets below 32, then 32 sub-buckets per power of two, bounding the
// relative quantization error of any reported percentile by 1/64.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "sync/sync.hpp"

namespace trail::obs {

/// Monotonic event count. inc() is safe from any thread (relaxed
/// atomic: increments commute); value() read at a quiesce point — after
/// joining producer threads — sees every increment.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& o) : value_(o.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& o) {
    value_.store(o.value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, resident pages); tracks the high
/// watermark since the last reset. set()/add() are safe from any
/// thread; the watermark is maintained with a CAS loop so no concurrent
/// peak is ever lost.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& o)
      : value_(o.value_.load(std::memory_order_relaxed)),
        max_(o.max_.load(std::memory_order_relaxed)) {}
  Gauge& operator=(const Gauge& o) {
    value_.store(o.value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    max_.store(o.max_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t d) {
    raise_max(value_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket log-scale histogram over non-negative int64 values.
/// record() is O(1) (a handful of relaxed atomic increments, no lock —
/// safe from any thread); percentiles walk the bucket array
/// (O(#buckets), reporting-path only). min/max/sum/count are exact; a
/// mid-bucket percentile is off by at most 1/64 of its value.
class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr int kSubCount = 1 << kSubBits;
  static constexpr int kBucketCount = (64 - kSubBits + 1) * kSubCount;

  Histogram() = default;
  Histogram(const Histogram& o) { copy_from(o); }
  Histogram& operator=(const Histogram& o) {
    if (this != &o) copy_from(o);
    return *this;
  }

  void record(std::int64_t v);
  void record(sim::Duration d) { record(d.ns()); }  // units = ns

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] std::int64_t max() const {
    return count() ? max_.load(std::memory_order_relaxed) : 0;
  }
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

  void reset();

  /// Bucket index for a value (exposed for boundary tests).
  [[nodiscard]] static int bucket_index(std::int64_t v);
  /// Inclusive lower bound of a bucket.
  [[nodiscard]] static std::int64_t bucket_lower(int index);
  /// Representative (midpoint) value reported for a bucket.
  [[nodiscard]] static std::int64_t bucket_mid(int index);

 private:
  void copy_from(const Histogram& o);

  // min_/max_ carry sentinels while empty so concurrent first records
  // CAS-race correctly; the accessors report 0 until count() > 0.
  std::atomic<std::uint64_t> counts_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// Named metrics, shared by every instrumented layer. References handed
/// out are stable for the registry's lifetime (node-based storage) and
/// the metrics themselves are safe for concurrent recording; the
/// name→metric maps are mutex-guarded so registration is safe from any
/// thread too (hot paths cache the references at attach time and never
/// look names up again). Iteration and the JSON dump are name-ordered,
/// so two identical runs serialize identically.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) TRAIL_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) TRAIL_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) TRAIL_EXCLUDES(mu_);

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,mean,p50,p90,p99},...}}.
  [[nodiscard]] std::string to_json() const TRAIL_EXCLUDES(mu_);

  /// Deterministic OpenMetrics text exposition. Dots in metric names
  /// become underscores under a `trail_` namespace; the sharded stack's
  /// `shard.<k>.` name-prefix convention is lifted into a
  /// `shard="<k>"` label so per-shard series form one family. Counters
  /// emit `_total` samples, gauges a value plus a `_max` watermark
  /// family, histograms OpenMetrics summaries (quantile 0.5/0.9/0.99 +
  /// `_sum`/`_count`). Families and samples are name-ordered (shard
  /// label numerically), so equal registries export equal bytes.
  [[nodiscard]] std::string to_openmetrics() const TRAIL_EXCLUDES(mu_);

  /// Zero every metric (between bench phases); names stay registered.
  void reset() TRAIL_EXCLUDES(mu_);

 private:
  mutable sync::Mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_ TRAIL_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ TRAIL_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_ TRAIL_GUARDED_BY(mu_);
};

}  // namespace trail::obs
