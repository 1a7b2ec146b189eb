#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>

#include "common/format.hpp"

namespace llio::obs {

namespace {

bool metrics_from_env() {
  const char* v = std::getenv("LLIO_METRICS");
  if (v == nullptr || *v == '\0') return false;
  const std::string s = v;
  return s == "on" || s == "1" || s == "true";
}

}  // namespace

namespace detail {
std::atomic<bool> g_metrics_enabled{metrics_from_env()};
}

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---- histogram ---------------------------------------------------------

/// Values < 16 map to their own bucket; above that, bucket = 16 +
/// (msb - 4) * 4 + top-2-sub-bits.  Monotonic in v, 256 covers the full
/// 64-bit range.
int histogram_bucket_index(long long v) {
  if (v < 0) v = 0;
  const auto u = static_cast<unsigned long long>(v);
  if (u < 16) return static_cast<int>(u);
  const int msb = 63 - __builtin_clzll(u);
  const int sub = static_cast<int>((u >> (msb - 2)) & 0x3);
  const int idx = 16 + (msb - 4) * 4 + sub;
  return std::min(idx, Histogram::kBuckets - 1);
}

void histogram_bucket_bounds(int idx, long long& lo, long long& hi) {
  if (idx < 16) {
    lo = hi = idx;
    return;
  }
  const int msb = 4 + (idx - 16) / 4;
  const int sub = (idx - 16) % 4;
  // Unsigned: the top buckets reach 2^63 and beyond, which long long
  // cannot hold; their bounds saturate at LLONG_MAX.
  const unsigned long long step = 1ULL << (msb - 2);
  const unsigned long long ulo =
      (1ULL << msb) + static_cast<unsigned long long>(sub) * step;
  constexpr auto kMax =
      static_cast<unsigned long long>(std::numeric_limits<long long>::max());
  lo = static_cast<long long>(std::min(ulo, kMax));
  hi = static_cast<long long>(std::min(ulo + (step - 1), kMax));
}

namespace {

/// The one quantile rule both Histogram and HistogramData use: pick the
/// bucket holding the 1-based observation ceil(q * n) (nearest-rank), and
/// return its lower bound clamped to the observed extrema.  Integer rank
/// selection makes the result a pure function of the bucket counts — no
/// float accumulation order, no interpolation at bucket edges — so any
/// merge order and any split of the same samples produce the identical
/// value, and that value sits in the exact observation's own bucket.
template <class NextBucket>
double quantile_from_buckets(double q, std::uint64_t n, long long vmin,
                             long long vmax, NextBucket next) {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t cum = 0;
  int idx = 0;
  std::uint64_t c = 0;
  while (next(idx, c)) {
    cum += c;
    if (cum >= rank) {
      long long lo = 0, hi = 0;
      histogram_bucket_bounds(idx, lo, hi);
      return static_cast<double>(std::clamp(lo, vmin, vmax));
    }
  }
  return static_cast<double>(vmax);
}

}  // namespace

void HistogramData::record(long long v) {
  if (v < 0) v = 0;
  const int idx = histogram_bucket_index(v);
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), idx,
      [](const auto& b, int i) { return b.first < i; });
  if (it != buckets.end() && it->first == idx)
    it->second += 1;
  else
    buckets.insert(it, {idx, 1});
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

void HistogramData::merge(const HistogramData& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  // Merge two sorted sparse bucket lists.
  std::vector<std::pair<int, std::uint64_t>> merged;
  merged.reserve(buckets.size() + o.buckets.size());
  std::size_t i = 0, j = 0;
  while (i < buckets.size() || j < o.buckets.size()) {
    if (j == o.buckets.size() ||
        (i < buckets.size() && buckets[i].first < o.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i == buckets.size() ||
               o.buckets[j].first < buckets[i].first) {
      merged.push_back(o.buckets[j++]);
    } else {
      merged.push_back({buckets[i].first,
                        buckets[i].second + o.buckets[j].second});
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

double HistogramData::quantile(double q) const {
  std::size_t pos = 0;
  return quantile_from_buckets(
      q, count, min, max, [&](int& idx, std::uint64_t& c) {
        if (pos >= buckets.size()) return false;
        idx = buckets[pos].first;
        c = buckets[pos].second;
        ++pos;
        return true;
      });
}

HistogramSummary HistogramData::summary() const {
  HistogramSummary s;
  s.count = count;
  if (s.count == 0) return s;
  s.mean = static_cast<double>(sum) / static_cast<double>(s.count);
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  s.min = min;
  s.max = max;
  return s;
}

void Histogram::record(long long v) {
  if (v < 0) v = 0;
  buckets_[histogram_bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  if (n == 0) {
    // First recording initialises the extrema; racy seconds fix it below.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  long long cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  int pos = 0;
  return quantile_from_buckets(
      q, n, min_.load(std::memory_order_relaxed),
      max_.load(std::memory_order_relaxed),
      [&](int& idx, std::uint64_t& c) {
        while (pos < kBuckets) {
          const std::uint64_t v =
              buckets_[pos].load(std::memory_order_relaxed);
          if (v != 0) {
            idx = pos;
            c = v;
            ++pos;
            return true;
          }
          ++pos;
        }
        return false;
      });
}

HistogramData Histogram::data() const {
  HistogramData d;
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = min_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) d.buckets.push_back({i, c});
  }
  return d;
}

HistogramSummary Histogram::summary() const {
  // One coherent copy of the buckets feeds all three quantiles, so the
  // summary is internally consistent even while recordings continue.
  return data().summary();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---- registry ----------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: node-based, so references stay valid across inserts.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
  static Registry* r = new Registry;  // leaked: see Tracer::instance
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(impl_->mu);
  return impl_->counters[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(impl_->mu);
  return impl_->gauges[name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(impl_->mu);
  return impl_->histograms[name];
}

HistogramSummary Registry::histogram_summary(const std::string& name) const {
  std::lock_guard lock(impl_->mu);
  const auto it = impl_->histograms.find(name);
  return it == impl_->histograms.end() ? HistogramSummary{}
                                       : it->second.summary();
}

std::vector<std::pair<std::string, HistogramData>> Registry::histogram_data()
    const {
  std::lock_guard lock(impl_->mu);
  std::vector<std::pair<std::string, HistogramData>> out;
  out.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms)
    out.push_back({name, h.data()});
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values()
    const {
  std::lock_guard lock(impl_->mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters)
    out.push_back({name, c.value()});
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard lock(impl_->mu);
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  out += "\"counters\":{";
  for (const auto& [name, c] : impl_->counters) {
    sep();
    out += strprintf("\"%s\":%llu", name.c_str(),
                     static_cast<unsigned long long>(c.value()));
  }
  out += "},";
  first = true;
  out += "\"gauges\":{";
  for (const auto& [name, g] : impl_->gauges) {
    sep();
    out += strprintf("\"%s\":%lld", name.c_str(), g.value());
  }
  out += "},";
  first = true;
  out += "\"histograms\":{";
  for (const auto& [name, h] : impl_->histograms) {
    sep();
    const HistogramSummary s = h.summary();
    out += strprintf(
        "\"%s\":{\"count\":%llu,\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,"
        "\"p99\":%.3f,\"min\":%lld,\"max\":%lld}",
        name.c_str(), static_cast<unsigned long long>(s.count), s.mean,
        s.p50, s.p95, s.p99, s.min, s.max);
  }
  out += "}}";
  return out;
}

std::string Registry::to_table() const {
  std::lock_guard lock(impl_->mu);
  std::string out;
  for (const auto& [name, c] : impl_->counters)
    out += strprintf("counter    %-36s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(c.value()));
  for (const auto& [name, g] : impl_->gauges)
    out += strprintf("gauge      %-36s %lld\n", name.c_str(), g.value());
  for (const auto& [name, h] : impl_->histograms) {
    const HistogramSummary s = h.summary();
    out += strprintf(
        "histogram  %-36s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
        "min=%lld max=%lld\n",
        name.c_str(), static_cast<unsigned long long>(s.count), s.mean,
        s.p50, s.p95, s.p99, s.min, s.max);
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c.reset();
  for (auto& [name, g] : impl_->gauges) g.reset();
  for (auto& [name, h] : impl_->histograms) h.reset();
}

// ---- local registry ----------------------------------------------------

Histogram& LocalRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  return hists_[name];  // std::map: references stay valid across inserts
}

std::vector<std::pair<std::string, HistogramData>>
LocalRegistry::histogram_data() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, HistogramData>> out;
  out.reserve(hists_.size());
  for (const auto& [name, h] : hists_) out.push_back({name, h.data()});
  return out;
}

void LocalRegistry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, h] : hists_) h.reset();
}

}  // namespace llio::obs
