#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace itdos::telemetry {

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  // bit_width >= 5 here; the top 4 bits below the leading bit select the
  // sub-bucket, giving 16 linear buckets per power-of-2 magnitude.
  const int magnitude = std::bit_width(v);
  const int shift = magnitude - 5;
  return kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets +
         static_cast<std::size_t>((v >> shift) - kSubBuckets);
}

std::uint64_t Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t block = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  const std::uint64_t lower = static_cast<std::uint64_t>(kSubBuckets + sub) << block;
  return lower + ((std::uint64_t{1} << block) - 1);
}

void Histogram::record(std::int64_t sample) {
  const std::uint64_t v = sample < 0 ? 0 : static_cast<std::uint64_t>(sample);
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  ++buckets_[bucket_index(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) return std::min(bucket_upper(i), max_);
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  if (!buckets_.empty()) std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0;
}

void Gauge::sample(std::int64_t v) {
  const std::int64_t t = (*clock_)();
  // Coalesce same-instant updates: a burst of set() calls within one event
  // is one level change as far as the timeline is concerned.
  if (!series_.empty() && series_.back().t_ns == t) {
    series_.back().v = v;
    return;
  }
  if (ticks_++ % stride_ != 0) return;
  append_sample({t, v});
}

void Gauge::append_sample(Sample s) {
  series_.push_back(s);
  if (series_.size() >= kMaxSeriesSamples) decimate();
}

void Gauge::decimate() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < series_.size(); r += 2) series_[w++] = series_[r];
  series_.resize(w);
  stride_ *= 2;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
    it->second.clock_ = clock_;
  }
  return it->second;
}

void MetricsRegistry::set_clock(std::function<std::int64_t()> clock) {
  clock_ = std::make_shared<const std::function<std::int64_t()>>(std::move(clock));
  for (auto& [name, g] : gauges_) g.clock_ = clock_;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(std::string(name), Histogram{}).first;
  return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name);
    mine.add(g.value());
    // A merged run's high-water mark survives even when its gauge drained
    // back to zero before the harvest (peaks max, they don't add).
    mine.peak_ = std::max(mine.peak_, g.peak_);
    // Carry the source's history across (bench aggregation: each simulated
    // system restarts at t=0, so the merged series is a concatenation of
    // runs, re-decimated to stay within the sample cap).
    for (const Gauge::Sample& s : g.series_) mine.append_sample(s);
  }
  for (const auto& [name, h] : other.histograms_) histogram(name).merge_from(h);
}

}  // namespace itdos::telemetry
