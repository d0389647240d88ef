#include "obs/metrics.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/json.h"

namespace obs {
namespace {

void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

std::string MetricKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');  // unit separator: cannot appear in sane labels
    key += k;
    key.push_back('=');
    key += v;
  }
  return key;
}

}  // namespace

void Gauge::Add(double delta) { AtomicAdd(value_, delta); }

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      buckets_(options.bucket_count + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (!(options_.first_bound > 0.0) || !(options_.growth > 1.0) ||
      options_.bucket_count == 0) {
    throw std::invalid_argument("histogram needs first_bound>0, growth>1, "
                                "bucket_count>0");
  }
}

double Histogram::BucketUpperBound(std::size_t i) const {
  if (i + 1 >= buckets_.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.first_bound * std::pow(options_.growth,
                                         static_cast<double>(i));
}

void Histogram::Record(double value) {
  // log-indexed bucket: first i with bound(i) >= value.
  std::size_t index = 0;
  if (value > options_.first_bound) {
    const double steps =
        std::log(value / options_.first_bound) / std::log(options_.growth);
    index = static_cast<std::size_t>(std::ceil(steps - 1e-9));
    if (index >= options_.bucket_count) {
      index = buckets_.size() - 1;  // overflow bucket
    }
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::Min() const {
  return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  const std::uint64_t total = Count();
  if (total == 0) {
    return 0.0;
  }
  p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Linear interpolation inside the winning bucket, clamped to the
      // observed range so narrow distributions don't report bucket edges.
      double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      double upper = BucketUpperBound(i);
      if (!std::isfinite(upper)) {
        upper = Max();
      }
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      double value = lower + (upper - lower) * fraction;
      value = std::max(value, Min());
      value = std::min(value, Max());
      return value;
    }
    cumulative += in_bucket;
  }
  return Max();
}

MetricsRegistry::Entry& MetricsRegistry::Lookup(
    std::string_view name, const Labels& labels, Kind kind,
    const HistogramOptions* options) {
  const std::string key = MetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.name = std::string(name);
    entry.labels = labels;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(
            options != nullptr ? *options : HistogramOptions{});
        break;
    }
    it = entries_.emplace(key, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return *Lookup(name, labels, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return *Lookup(name, labels, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         const Labels& labels,
                                         const HistogramOptions& options) {
  return *Lookup(name, labels, Kind::kHistogram, &options).histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = entry.name;
    snap.labels = entry.labels;
    switch (entry.kind) {
      case Kind::kCounter:
        snap.kind = MetricSnapshot::Kind::kCounter;
        snap.counter_value = entry.counter->Value();
        break;
      case Kind::kGauge:
        snap.kind = MetricSnapshot::Kind::kGauge;
        snap.gauge_value = entry.gauge->Value();
        break;
      case Kind::kHistogram: {
        snap.kind = MetricSnapshot::Kind::kHistogram;
        const Histogram& h = *entry.histogram;
        const std::size_t buckets = h.BucketCount();
        snap.bucket_bounds.reserve(buckets);
        snap.bucket_counts.reserve(buckets);
        for (std::size_t i = 0; i < buckets; ++i) {
          snap.bucket_bounds.push_back(h.BucketUpperBound(i));
          snap.bucket_counts.push_back(h.BucketValue(i));
          // Derived from the same bucket reads (not h.Count()) so a scrape
          // taken mid-Record still satisfies count == +Inf bucket.
          snap.hist_count += snap.bucket_counts.back();
        }
        snap.hist_sum = h.Sum();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

namespace {

void WriteLabels(JsonWriter& json, const Labels& labels) {
  json.Key("labels").BeginObject();
  for (const auto& [k, v] : labels) {
    json.Key(k).String(v);
  }
  json.EndObject();
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.BeginObject();

  json.Key("counters").BeginArray();
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != Kind::kCounter) {
      continue;
    }
    json.BeginObject().Key("name").String(entry.name);
    WriteLabels(json, entry.labels);
    json.Key("value").UInt(entry.counter->Value()).EndObject();
  }
  json.EndArray();

  json.Key("gauges").BeginArray();
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != Kind::kGauge) {
      continue;
    }
    json.BeginObject().Key("name").String(entry.name);
    WriteLabels(json, entry.labels);
    json.Key("value").Number(entry.gauge->Value()).EndObject();
  }
  json.EndArray();

  json.Key("histograms").BeginArray();
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != Kind::kHistogram) {
      continue;
    }
    const Histogram& h = *entry.histogram;
    json.BeginObject().Key("name").String(entry.name);
    WriteLabels(json, entry.labels);
    json.Key("count").UInt(h.Count());
    json.Key("sum").Number(h.Sum());
    json.Key("min").Number(h.Min());
    json.Key("max").Number(h.Max());
    json.Key("p50").Number(h.Percentile(0.50));
    json.Key("p95").Number(h.Percentile(0.95));
    json.Key("p99").Number(h.Percentile(0.99));
    json.Key("buckets").BeginArray();
    for (std::size_t i = 0; i < h.BucketCount(); ++i) {
      const std::uint64_t count = h.BucketValue(i);
      if (count == 0) {
        continue;  // sparse output keeps snapshots small
      }
      json.BeginObject();
      json.Key("le").Number(h.BucketUpperBound(i));
      json.Key("count").UInt(count);
      json.EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.TakeString();
}

void MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open metrics output: " + path);
  }
  out << SnapshotJson() << '\n';
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
