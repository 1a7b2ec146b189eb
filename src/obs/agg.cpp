#include "obs/agg.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/error.hpp"
#include "common/format.hpp"

namespace llio::obs {

// ---- snapshot wire format ----------------------------------------------
//
// Flat little-endian layout, host byte order (rank threads share one
// process; the simulated wire never leaves it):
//   u32 rank
//   u32 nphases { u32 len, bytes, f64 seconds }*
//   u32 ncounters { u32 len, bytes, u64 value }*
//   u32 npeaks { u32 len, bytes, f64 value }*
//   u32 nhists { u32 len, bytes, u64 count, i64 sum, i64 min, i64 max,
//                u32 nbuckets { u32 index, u64 count }* }*

namespace {

template <class T>
void put(ByteVec& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

void put_str(ByteVec& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

/// A section of named scalars: u32 count { u32 len, bytes, T value }*.
template <class T>
void put_named(ByteVec& out,
               const std::vector<std::pair<std::string, T>>& section) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(section.size()));
  for (const auto& [name, v] : section) {
    put_str(out, name);
    put<T>(out, v);
  }
}

struct Reader {
  ConstByteSpan raw;
  std::size_t pos = 0;

  template <class T>
  T get() {
    LLIO_REQUIRE(pos + sizeof(T) <= raw.size(), Errc::Protocol,
                 "RankSnapshot: truncated payload");
    T v;
    std::memcpy(&v, raw.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  /// An element count, refused when `min_entry`-byte entries that many
  /// could not fit in the rest of the payload (so no hostile count can
  /// drive a huge reserve).
  std::uint32_t get_count(std::size_t min_entry) {
    const std::uint32_t n = get<std::uint32_t>();
    LLIO_REQUIRE(n <= (raw.size() - pos) / min_entry, Errc::Protocol,
                 "RankSnapshot: count exceeds payload");
    return n;
  }

  std::string get_str() {
    const std::uint32_t len = get<std::uint32_t>();
    LLIO_REQUIRE(pos + len <= raw.size(), Errc::Protocol,
                 "RankSnapshot: truncated string");
    std::string s(reinterpret_cast<const char*>(raw.data() + pos), len);
    pos += len;
    return s;
  }

  template <class T>
  void get_named(std::vector<std::pair<std::string, T>>& section) {
    const std::uint32_t n = get_count(4 + sizeof(T));
    section.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = get_str();
      const T v = get<T>();
      section.emplace_back(std::move(name), v);
    }
  }
};

}  // namespace

ByteVec RankSnapshot::serialize() const {
  ByteVec out;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rank));
  put_named(out, phases);
  put_named(out, counters);
  put_named(out, peaks);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(hists.size()));
  for (const auto& [name, h] : hists) {
    put_str(out, name);
    put<std::uint64_t>(out, h.count);
    put<long long>(out, h.sum);
    put<long long>(out, h.min);
    put<long long>(out, h.max);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [idx, c] : h.buckets) {
      put<std::uint32_t>(out, static_cast<std::uint32_t>(idx));
      put<std::uint64_t>(out, c);
    }
  }
  return out;
}

RankSnapshot RankSnapshot::deserialize(ConstByteSpan raw) {
  Reader r{raw};
  RankSnapshot s;
  s.rank = static_cast<int>(r.get<std::uint32_t>());
  r.get_named(s.phases);
  r.get_named(s.counters);
  r.get_named(s.peaks);
  // Smallest encodings: a histogram is 40 bytes before its buckets, a
  // bucket 12 bytes.
  const std::uint32_t nhists = r.get_count(40);
  s.hists.reserve(nhists);
  for (std::uint32_t i = 0; i < nhists; ++i) {
    std::string name = r.get_str();
    HistogramData h;
    h.count = r.get<std::uint64_t>();
    h.sum = r.get<long long>();
    h.min = r.get<long long>();
    h.max = r.get<long long>();
    const std::uint32_t nbuckets = r.get_count(12);
    h.buckets.reserve(nbuckets);
    for (std::uint32_t b = 0; b < nbuckets; ++b) {
      const int idx = static_cast<int>(r.get<std::uint32_t>());
      const std::uint64_t c = r.get<std::uint64_t>();
      h.buckets.push_back({idx, c});
    }
    s.hists.push_back({std::move(name), std::move(h)});
  }
  LLIO_REQUIRE(r.pos == raw.size(), Errc::Protocol,
               "RankSnapshot: trailing bytes");
  return s;
}

// ---- collector ---------------------------------------------------------

namespace {

/// Imbalance below this does not name a straggler: with a handful of
/// ranks over fast simulated storage, a few percent of spread is
/// scheduling noise, not a finding.
constexpr double kStragglerThreshold = 1.05;

PhaseStats build_phase(const std::string& name,
                       const std::vector<double>& per_rank,
                       const std::vector<int>& ranks) {
  PhaseStats p;
  p.name = name;
  p.per_rank_s = per_rank;
  const std::size_t n = per_rank.size();
  if (n == 0) return p;
  p.min_s = per_rank[0];
  p.max_s = per_rank[0];
  p.min_rank = ranks[0];
  p.max_rank = ranks[0];
  for (std::size_t i = 0; i < n; ++i) {
    p.sum_s += per_rank[i];
    if (per_rank[i] < p.min_s) {
      p.min_s = per_rank[i];
      p.min_rank = ranks[i];
    }
    if (per_rank[i] > p.max_s) {
      p.max_s = per_rank[i];
      p.max_rank = ranks[i];
    }
  }
  p.mean_s = p.sum_s / static_cast<double>(n);
  std::vector<double> sorted = per_rank;
  std::sort(sorted.begin(), sorted.end());
  p.median_s = n % 2 == 1 ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  p.imbalance = p.mean_s > 0 ? p.max_s / p.mean_s : 0.0;
  return p;
}

}  // namespace

JobReport Collector::build(const std::vector<RankSnapshot>& ranks) {
  std::vector<const RankSnapshot*> order;
  order.reserve(ranks.size());
  for (const RankSnapshot& r : ranks) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const RankSnapshot* a, const RankSnapshot* b) {
              return a->rank < b->rank;
            });

  JobReport job;
  job.nranks = static_cast<int>(order.size());
  for (const RankSnapshot* r : order) job.ranks.push_back(r->rank);

  // Phases: the union of names, each aligned to the rank order (a rank
  // that never reported a phase contributes 0).
  std::map<std::string, std::vector<double>> phases;
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const auto& [name, s] : order[i]->phases) {
      auto& v = phases[name];
      v.resize(order.size(), 0.0);
      v[i] += s;
    }
  for (auto& [name, v] : phases) {
    v.resize(order.size(), 0.0);
    job.phases.push_back(build_phase(name, v, job.ranks));
  }

  std::map<std::string, std::uint64_t> counters;
  for (const RankSnapshot* r : order)
    for (const auto& [name, v] : r->counters) counters[name] += v;
  for (const auto& [name, v] : counters) job.counters.push_back({name, v});

  std::map<std::string, double> peaks;
  for (const RankSnapshot* r : order)
    for (const auto& [name, v] : r->peaks) {
      double& peak = peaks[name];  // peaks are non-negative
      peak = std::max(peak, v);
    }
  for (const auto& [name, v] : peaks) job.peaks.push_back({name, v});

  std::map<std::string, MergedHistogram> hists;
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const auto& [name, h] : order[i]->hists) {
      MergedHistogram& m = hists[name];
      m.name = name;
      m.per_rank.resize(order.size());
      m.per_rank[i] = h.summary();
      m.merged.merge(h);
    }
  for (auto& [name, m] : hists) {
    m.per_rank.resize(order.size());
    job.hists.push_back(std::move(m));
  }

  if (const PhaseStats* total = job.phase("total");
      total != nullptr && total->imbalance > kStragglerThreshold) {
    job.straggler_rank = total->max_rank;
    job.straggler_imbalance = total->imbalance;
  }
  return job;
}

const PhaseStats* JobReport::phase(const std::string& name) const {
  for (const PhaseStats& p : phases)
    if (p.name == name) return &p;
  return nullptr;
}

// ---- critical path -----------------------------------------------------

CriticalPathReport critical_path(const std::vector<TraceEvent>& events) {
  struct Window {
    double window_us = 0;
    double io_us = 0;    // io_wait + inline preread/pwrite (serial loop)
    double pack_us = 0;
  };
  // The numeric "win" argument, matched exactly as explain_pipeline does.
  auto win_arg = [](const TraceEvent& ev) -> long long {
    for (const TraceArg& a : ev.args)
      if (!a.is_text && a.key == "win") return a.value;
    return -1;
  };

  std::map<std::pair<int, long long>, Window> windows;
  CriticalPathReport report;
  for (const TraceEvent& ev : events) {
    if (ev.phase != 'X') continue;
    if (ev.name == "exchange") {
      // Phase exchanges run outside the window loop; they are context for
      // the job totals, not part of any one window's budget.
      if (ev.tid == 0) report.exchange_us += ev.dur_us;
      continue;
    }
    if (ev.tid != 0) continue;  // worker-side I/O is hidden by definition
    const bool is_window = ev.name == "window";
    const bool is_io = ev.name == "io_wait" || ev.name == "preread" ||
                       ev.name == "pwrite";
    const bool is_pack = ev.name == "pack";
    if (!is_window && !is_io && !is_pack) continue;
    const long long idx = win_arg(ev);
    if (idx < 0) continue;
    Window& w = windows[{ev.pid, idx}];
    if (is_window) w.window_us += ev.dur_us;
    if (is_io) w.io_us += ev.dur_us;
    if (is_pack) w.pack_us += ev.dur_us;
  }

  double attributed_us = 0;
  for (const auto& [key, w] : windows) {
    if (w.window_us <= 0) continue;
    ++report.windows;
    report.window_us += w.window_us;
    // Components are nested inside the window span on the same thread, so
    // their sum cannot exceed it except by clock-read jitter; clamp.
    const double io = std::min(w.io_us, w.window_us);
    const double pack = std::min(w.pack_us, w.window_us - io);
    const double other = w.window_us - io - pack;
    report.io_us += io;
    report.pack_us += pack;
    report.other_us += other;
    attributed_us += io + pack;
    if (io >= pack && io >= other)
      ++report.io_limited_windows;
    else if (pack >= other)
      ++report.pack_limited_windows;
    else
      ++report.other_limited_windows;
  }
  report.attributed_frac =
      report.window_us > 0 ? attributed_us / report.window_us : 0.0;
  return report;
}

// ---- report JSON -------------------------------------------------------

namespace {

std::string summary_json(const HistogramSummary& s) {
  return strprintf(
      "{\"count\":%llu,\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,"
      "\"p99\":%.3f,\"min\":%lld,\"max\":%lld}",
      static_cast<unsigned long long>(s.count), s.mean, s.p50, s.p95, s.p99,
      s.min, s.max);
}

std::string data_json(const HistogramData& h) {
  const HistogramSummary s = h.summary();
  std::string out = strprintf(
      "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
      "\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\"buckets\":[",
      static_cast<unsigned long long>(h.count), h.sum, h.min, h.max, s.p50,
      s.p95, s.p99);
  bool first = true;
  for (const auto& [idx, c] : h.buckets) {
    if (!first) out += ',';
    first = false;
    out += strprintf("[%d,%llu]", idx, static_cast<unsigned long long>(c));
  }
  out += "]}";
  return out;
}

}  // namespace

std::string JobReport::to_json() const {
  // Metric/phase names are our own C identifiers — nothing to escape.
  std::string out = strprintf("{\"schema\":\"llio_report/v1\",\"nranks\":%d,",
                              nranks);
  out += "\"ranks\":[";
  for (std::size_t i = 0; i < ranks.size(); ++i)
    out += strprintf(i == 0 ? "%d" : ",%d", ranks[i]);
  out += "],\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    if (i != 0) out += ',';
    out += strprintf(
        "{\"name\":\"%s\",\"min_s\":%.6f,\"median_s\":%.6f,\"max_s\":%.6f,"
        "\"mean_s\":%.6f,\"sum_s\":%.6f,\"min_rank\":%d,\"max_rank\":%d,"
        "\"imbalance\":%.3f,\"per_rank_s\":[",
        p.name.c_str(), p.min_s, p.median_s, p.max_s, p.mean_s, p.sum_s,
        p.min_rank, p.max_rank, p.imbalance);
    for (std::size_t r = 0; r < p.per_rank_s.size(); ++r)
      out += strprintf(r == 0 ? "%.6f" : ",%.6f", p.per_rank_s[r]);
    out += "]}";
  }
  out += "],\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i)
    out += strprintf(i == 0 ? "\"%s\":%llu" : ",\"%s\":%llu",
                     counters[i].first.c_str(),
                     static_cast<unsigned long long>(counters[i].second));
  out += "},\"peaks\":{";
  for (std::size_t i = 0; i < peaks.size(); ++i)
    out += strprintf(i == 0 ? "\"%s\":%.17g" : ",\"%s\":%.17g",
                     peaks[i].first.c_str(), peaks[i].second);
  out += "},\"histograms\":[";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const MergedHistogram& m = hists[i];
    if (i != 0) out += ',';
    out += strprintf("{\"name\":\"%s\",\"merged\":", m.name.c_str());
    out += data_json(m.merged);
    out += ",\"per_rank\":[";
    for (std::size_t r = 0; r < m.per_rank.size(); ++r) {
      if (r != 0) out += ',';
      out += summary_json(m.per_rank[r]);
    }
    out += "]}";
  }
  out += strprintf("],\"straggler\":{\"rank\":%d,\"imbalance\":%.3f}",
                   straggler_rank, straggler_imbalance);
  if (critical) {
    const CriticalPathReport& c = *critical;
    out += strprintf(
        ",\"critical_path\":{\"windows\":%lld,\"window_us\":%.1f,"
        "\"io_us\":%.1f,\"pack_us\":%.1f,\"other_us\":%.1f,"
        "\"exchange_us\":%.1f,\"attributed_frac\":%.4f,"
        "\"limiter\":\"%s\",\"io_limited_windows\":%lld,"
        "\"pack_limited_windows\":%lld,\"other_limited_windows\":%lld}",
        c.windows, c.window_us, c.io_us, c.pack_us, c.other_us,
        c.exchange_us, c.attributed_frac, c.limiter(), c.io_limited_windows,
        c.pack_limited_windows, c.other_limited_windows);
  }
  out += ",\"global_histograms\":{";
  for (std::size_t i = 0; i < global_hists.size(); ++i) {
    if (i != 0) out += ',';
    out += strprintf("\"%s\":", global_hists[i].first.c_str());
    out += summary_json(global_hists[i].second);
  }
  out += "},\"global_counters\":{";
  for (std::size_t i = 0; i < global_counters.size(); ++i)
    out += strprintf(i == 0 ? "\"%s\":%llu" : ",\"%s\":%llu",
                     global_counters[i].first.c_str(),
                     static_cast<unsigned long long>(global_counters[i].second));
  out += strprintf(
      "},\"sampling\":{\"produced\":%llu,\"dropped\":%llu}",
      static_cast<unsigned long long>(samples_produced),
      static_cast<unsigned long long>(samples_dropped));
  if (!adapt_policy.empty()) {
    out += strprintf(
        ",\"adapt\":{\"policy\":\"%s\",\"decisions\":%llu,"
        "\"probes\":%llu,\"switches\":%llu,\"dims\":[",
        adapt_policy.c_str(),
        static_cast<unsigned long long>(adapt_decisions),
        static_cast<unsigned long long>(adapt_probes),
        static_cast<unsigned long long>(adapt_switches));
    for (std::size_t i = 0; i < adapt_dims.size(); ++i)
      out += strprintf(i == 0 ? "\"%s\"" : ",\"%s\"",
                       adapt_dims[i].c_str());
    out += "],\"trail\":[";
    for (std::size_t i = 0; i < adapt_trail.size(); ++i) {
      const AdaptDecision& d = adapt_trail[i];
      if (i != 0) out += ',';
      out += strprintf(
          "{\"seq\":%llu,\"op\":%u,\"backend\":%u,\"net\":%u,"
          "\"view_sig\":%llu,\"size_class\":%d,\"arm\":\"%s\","
          "\"probe\":%s,\"switched\":%s,\"cost_ns_per_byte\":%.3f,"
          "\"incumbent_ns_per_byte\":%.3f}",
          static_cast<unsigned long long>(d.seq), d.op, d.backend, d.net,
          static_cast<unsigned long long>(d.view_sig), d.size_class,
          d.arm.c_str(), d.probe ? "true" : "false",
          d.switched ? "true" : "false", d.cost_ns_per_byte,
          d.incumbent_ns_per_byte);
    }
    out += "]}";
  }
  out += "}";
  return out;
}

}  // namespace llio::obs
