#ifndef DCS_OBS_METRICS_H_
#define DCS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace dcs {

class MetricsRegistry;

/// What a registry entry measures. Exporters key their JSON/table layout off
/// this tag.
enum class MetricType {
  kCounter,    ///< Monotonic within a run (until ResetValues).
  kGauge,      ///< Last-write-wins sample of a level (fill ratio, core size).
  kHistogram,  ///< Log2-bucketed distribution of non-negative values.
};

/// \brief Monotonic event counter.
///
/// Updates are a single relaxed atomic add; when the owning registry is
/// disabled they are no-ops, so instrumentation can stay in release builds.
/// References returned by the registry are stable for the registry's
/// lifetime — cache them (e.g. in a function-local static) at hot sites.
class Counter {
 public:
  void Add(std::uint64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void ResetValue() { value_.store(0, std::memory_order_relaxed); }

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Last-write-wins level sample (fill ratio, cache hit rate, ...).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void ResetValue() { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram of non-negative integer samples.
///
/// Bucket b covers [2^(b-1), 2^b) with bucket 0 reserved for the value 0, so
/// boundaries are known at compile time and recording is one relaxed atomic
/// add — no allocation, no lock, safe from any thread. Stage timers record
/// nanoseconds here; detectors record per-iteration counts. Quantiles are
/// resolved to a bucket upper bound (within 2x of the true value), which is
/// plenty for "where did my epoch go" attribution.
class LatencyHistogram {
 public:
  /// The last bucket absorbs everything >= 2^62 (~146 years in ns), so any
  /// uint64 value has a bucket.
  static constexpr std::size_t kNumBuckets = 64;

  void Record(std::uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Bucket that `value` lands in: 0 for 0, else 1 + floor(log2(value)).
  static std::size_t BucketIndex(std::uint64_t value);
  /// Smallest value of bucket b (inclusive).
  static std::uint64_t BucketLowerBound(std::size_t b);
  /// One past the largest value of bucket b.
  static std::uint64_t BucketUpperBound(std::size_t b);

  /// Upper bound of the bucket holding the q-quantile (q in (0, 1]);
  /// 0 when empty.
  std::uint64_t QuantileUpperBound(double q) const;

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}
  void ResetValue();

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of every registered metric, sorted by name. The
/// exporter (obs/exporter.h) turns this into JSON lines or a table.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricType type = MetricType::kCounter;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    std::uint64_t hist_count = 0;
    std::uint64_t hist_sum = 0;
    /// (bucket lower bound, count) for every non-empty bucket, ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hist_buckets;
  };
  /// Which measurement epoch the snapshot describes (caller-assigned).
  std::uint64_t epoch_id = 0;
  std::vector<Entry> entries;

  /// Entry by exact name; nullptr when absent.
  const Entry* Find(std::string_view name) const;
};

/// \brief Process-wide registry of named counters/gauges/histograms.
///
/// Get* interns the name on first use and returns a stable reference whose
/// updates are lock-free; the registry mutex is only taken on registration
/// and snapshot. Everything is a no-op while disabled (the default), so the
/// pipeline's instrumentation costs one relaxed load per update site until
/// someone turns observability on (set_enabled, or the CLIs' --metrics).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The registry the pipeline instrumentation reports to.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Interns `name` (first call registers, later calls return the same
  /// object). A name may only ever be used with one metric type.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  /// Copies every registered metric, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every value but keeps registrations (epoch boundaries).
  void ResetValues();

  std::size_t num_metrics() const;

 private:
  struct Slot {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  /// Deliberately lock-free: every hot-path update (Counter::Add,
  /// Gauge::Set, LatencyHistogram::Record) is a relaxed atomic against
  /// values owned by the slots below, so mu_ guards the *map*, never the
  /// metric values — annotating the values DCS_GUARDED_BY(mu_) would be
  /// wrong, not just noisy. The enable flag is part of that lock-free
  /// surface (each metric keeps a pointer to it).
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_{"MetricsRegistry.mu"};
  /// Interned name -> slot. Values are unique_ptrs precisely so the
  /// references Get* hands out stay stable while the map rebalances under
  /// later registrations.
  std::map<std::string, Slot, std::less<>> slots_ DCS_GUARDED_BY(mu_);
};

/// Shorthands on the global registry. At hot sites cache the result:
///   static Counter& pairs = ObsCounter("pairscan.pairs_visited");
Counter& ObsCounter(std::string_view name);
Gauge& ObsGauge(std::string_view name);
LatencyHistogram& ObsHistogram(std::string_view name);

/// Whether the global registry currently records anything. Guards
/// instrumentation whose *preparation* is non-trivial (e.g. an O(bits) fill
/// count at epoch end).
inline bool ObsEnabled() { return MetricsRegistry::Global().enabled(); }

}  // namespace dcs

#endif  // DCS_OBS_METRICS_H_
