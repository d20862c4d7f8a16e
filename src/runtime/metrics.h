// Metrics registry of the runtime.
//
// Everything the runtime reports — queue stalls, per-chunk stage
// latencies, pool busy/idle, per-tenant admission outcomes — flows through
// one MetricsRegistry of named series, so every reader shares one
// vocabulary: the per-job stats views, the ops plane's scraper and the
// JSON snapshot exporter all read the same series.
//
// Three series kinds, all hot-path-cheap (one relaxed atomic op per
// update, no locks after creation):
//
//   * Counter   — monotone u64 (events, bytes). Merge: add.
//   * Gauge     — double with an aggregation kind chosen at creation:
//                 kSum accumulates (stall seconds), kMax keeps the
//                 high-water (peak buffer bytes). Merge follows the kind.
//   * Histogram — log2-bucketed latency distribution (count, sum, min,
//                 max, bucket counts; quantile estimates from buckets).
//                 Merge: bucket-wise add.
//
// Ownership/threading: the registry owns its series; references returned
// by counter()/gauge()/histogram() are stable for the registry's lifetime
// (series are never removed). Creation takes a mutex; wiring code looks a
// series up once and keeps the pointer. Updates are wait-free atomics and
// safe from any thread, including pool workers and the streaming reader.
//
// Scoping pattern: a per-job producer (one streamed run) writes into its
// own local registry, then merge_into() folds the job's series — counters
// added, max-gauges maxed, histogram buckets summed — into a long-lived
// service registry under a prefix. Per-job views (StreamingStats) and
// service-wide aggregates (StreamingTotals) are both reads of a registry,
// not separately maintained counter structs.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rif::runtime {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// How a gauge combines updates (record) and merges across registries.
enum class GaugeKind {
  kSum,  ///< accumulates: stall seconds, busy seconds
  kMax,  ///< high-water: peak buffer bytes, max queue occupancy
};

class Gauge {
 public:
  explicit Gauge(GaugeKind kind) : kind_(kind) {}

  [[nodiscard]] GaugeKind kind() const { return kind_; }

  /// Fold `v` in following the gauge's kind: kSum adds, kMax maxes.
  void record(double v) { kind_ == GaugeKind::kSum ? add(v) : update_max(v); }

  /// Overwrite (last-write-wins snapshot value, e.g. a utilization ratio).
  void set(double v) { value_.store(v, std::memory_order_relaxed); }

  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  const GaugeKind kind_;
  std::atomic<double> value_{0.0};
};

/// Latency distribution in log2 buckets: bucket b counts observations in
/// (2^(b-1-kZeroBucket), 2^(b-kZeroBucket)] seconds, so the range spans
/// ~1 microsecond to ~64 seconds with the tails clamped into the end
/// buckets. Good to a factor of 2 — the resolution autotuning and
/// dashboards need, at the cost of one atomic increment.
class Histogram {
 public:
  /// 2^-20 s ~ 1us lower edge, 27 buckets => top edge 2^6 = 64 s.
  static constexpr int kZeroBucket = 20;
  static constexpr int kBuckets = 27;

  void observe(double seconds);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  /// Upper edge (seconds) of bucket b.
  [[nodiscard]] static double bucket_edge(int b);

  /// Bucket-resolution quantile estimate: the upper edge of the bucket
  /// containing the q-th observation. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  friend class MetricsRegistry;  // merge support
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// +inf sentinel while empty, so concurrent first observations race
  /// safely through the same min-CAS as every later one.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time value of one histogram: totals plus the log2-bucket
/// quantile summary (p50/p95/p99 at bucket resolution) so a snapshot is
/// readable without access to the live buckets.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Consistent-enough point-in-time copy of a whole registry (each series
/// read atomically; cross-series skew is bounded by the walk). This is
/// what the MetricsScraper samples on its period — delta computation and
/// timeline serialization work on plain values, never on live series.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime.
  /// Re-requesting a gauge with a different kind keeps the original kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name, GaugeKind kind = GaugeKind::kSum);
  Histogram& histogram(const std::string& name);

  /// Lookup without creation; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Convenience reads that treat a missing series as zero — the natural
  /// semantics for report builders ("no streamed job ran yet").
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  /// Fold every series of this registry into `target` under `prefix`:
  /// counters add, gauges follow their kind (kSum adds, kMax maxes),
  /// histograms merge bucket-wise. Creates missing target series with the
  /// source's gauge kinds.
  void merge_into(MetricsRegistry& target, const std::string& prefix) const;

  /// Overwrite histogram `name` with an externally shipped cumulative
  /// state (raw log2 buckets — `buckets` must hold Histogram::kBuckets
  /// entries, excess ignored, missing read as zero). Used by the remote
  /// telemetry ingest, where the worker's registry lives in another
  /// process and batches may be re-shipped: overwriting with the latest
  /// cumulative state is idempotent where merging would double-count.
  void install_histogram(const std::string& name, std::uint64_t count,
                         double sum, double min, double max,
                         const std::vector<std::uint64_t>& buckets);

  /// Every series' current value as plain data (see RegistrySnapshot).
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// One JSON object for dashboards:
  /// {"counters":{name:value,...},
  ///  "gauges":{name:value,...},
  ///  "histograms":{name:{"count":..,"sum":..,"mean":..,"min":..,"max":..,
  ///                      "p50":..,"p95":..,"p99":..},...}}
  /// Series appear sorted by name; values are finite numbers. The p50/95/99
  /// summaries come from the log2 buckets (upper-edge estimates), so the
  /// report is readable without post-processing the buckets.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rif::runtime
