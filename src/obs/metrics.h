// Thread-safe metrics primitives and a name+label-addressed registry.
//
// The registry is the process-wide home for run telemetry: hot paths record
// into Counters/Gauges/Histograms (lock-free atomics after the first
// lookup), and the snapshot writer serialises everything to JSON so benches
// and the CLI can persist a run's metrics next to its CSVs. Metric handles
// returned by Get* stay valid for the registry's lifetime — cache them
// outside loops instead of re-resolving per record.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  // Bucket upper bounds: first_bound · growth^i for i in [0, bucket_count),
  // plus an implicit overflow bucket. The defaults cover [1, 2^31] — wide
  // enough for microsecond latencies from sub-μs spans to half-hour stalls.
  double first_bound = 1.0;
  double growth = 2.0;
  std::size_t bucket_count = 32;
};

// Fixed-exponential-bucket histogram. Record() is wait-free (two relaxed
// atomic adds plus a CAS loop for the double sum); percentile extraction
// interpolates linearly within the winning bucket and clamps to the observed
// min/max so p99 of a narrow distribution does not report a bucket edge.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void Record(double value);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;
  double Max() const;
  // p in [0, 1]; returns 0 when empty.
  double Percentile(double p) const;

  std::size_t BucketCount() const { return buckets_.size(); }
  // Upper bound of bucket i; +inf for the overflow bucket.
  double BucketUpperBound(std::size_t i) const;
  std::uint64_t BucketValue(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  const HistogramOptions& options() const { return options_; }

 private:
  HistogramOptions options_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bucket_count + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Point-in-time copy of one registered metric, decoupled from the live
// atomics so exporters (Prometheus text, /healthz) can format without
// holding the registry mutex. For histograms the buckets are per-bucket
// (non-cumulative) counts; the last bound is +inf (the overflow bucket).
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<double> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
};

// Name + labels → metric instance. Lookups take one mutex; the returned
// references remain valid until Reset(). A metric name must keep one kind:
// requesting "x" as a counter and later as a gauge throws.
class MetricsRegistry {
 public:
  Counter& GetCounter(std::string_view name, const Labels& labels = {});
  Gauge& GetGauge(std::string_view name, const Labels& labels = {});
  Histogram& GetHistogram(std::string_view name, const Labels& labels = {},
                          const HistogramOptions& options = {});

  // Stable copy of every metric, ordered by name then labels (the
  // registry's key order), safe to take while hot paths keep recording.
  std::vector<MetricSnapshot> Snapshot() const;

  // Full snapshot as a JSON object: {"counters":[...],"gauges":[...],
  // "histograms":[...]} with p50/p95/p99 and non-empty buckets inlined.
  std::string SnapshotJson() const;

  // SnapshotJson to a file; throws util-style std::runtime_error on failure.
  void WriteJson(const std::string& path) const;

  // Drops every metric. Invalidates all previously returned references —
  // meant for test isolation and between independent CLI runs, not while
  // worker threads still hold handles.
  void Reset();

  // Bumped by every Reset(). A hot path that caches handles across calls
  // keys the cache on this and re-resolves when it changes.
  std::uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  std::size_t MetricCount() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& Lookup(std::string_view name, const Labels& labels, Kind kind,
                const HistogramOptions* options);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // key = name + serialized labels
  std::atomic<std::uint64_t> generation_{0};
};

// The process-wide registry the instrumented hot paths record into.
MetricsRegistry& DefaultRegistry();

}  // namespace obs
