// Job-level observability: cross-rank metric aggregation.
//
// PR 3's tracer and registry are per-process; the collective engines'
// behavior is per-*job* — one straggler rank in the exchange stalls every
// window on every rank, and no single rank's numbers can show that.  This
// layer closes the gap:
//
//   * RankSnapshot — one rank's contribution: every IoOpStats field (time
//     fields as phases, counts as counters, high-water marks as peaks),
//     and the engine's per-rank phase histograms as mergeable
//     HistogramData.  Serializes to a flat byte vector for the wire.
//   * Collector::build — fold N RankSnapshots into a JobReport: per-phase
//     min/median/max/imbalance across ranks, merged histograms whose
//     quantiles reconcile with the per-rank values within one bucket
//     (deterministic nearest-rank selection on identical bucket edges),
//     summed counters, peaks maxed across ranks, and straggler
//     identification.
//   * aggregate(comm, mine) — the collective form: allgather the
//     serialized snapshots, build on every rank (all ranks return the
//     same report).  Templated over the comm type so obs stays below
//     simmpi in the layering (simmpi instruments with obs spans).
//   * critical_path(events) — a pass over the Chrome-trace spans
//     attributing each pipeline window's wall time to its limiting
//     component (I/O wait vs pack vs everything else), the "what do I fix
//     first" summary surfaced by --explain and the llio_report JSON.
//
// The JobReport JSON (schema "llio_report/v1") is the machine-readable
// interface consumed by tools/check_report.py in CI and, eventually, the
// adaptive engine's cost model (ROADMAP).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace llio::obs {

/// One rank's contribution to the job view.
struct RankSnapshot {
  int rank = 0;
  /// Phase name -> seconds (the IoOpStats time fields; any name is
  /// accepted).
  std::vector<std::pair<std::string, double>> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< summed
  std::vector<std::pair<std::string, double>> peaks;  ///< maxed, not summed
  /// Per-rank histograms (op.total_us etc.), mergeable across ranks.
  std::vector<std::pair<std::string, HistogramData>> hists;

  ByteVec serialize() const;
  static RankSnapshot deserialize(ConstByteSpan raw);
};

/// Cross-rank spread of one phase.
struct PhaseStats {
  std::string name;
  double min_s = 0;
  double median_s = 0;
  double max_s = 0;
  double mean_s = 0;
  double sum_s = 0;
  int min_rank = -1;  ///< rank holding the minimum
  int max_rank = -1;  ///< rank holding the maximum (the phase straggler)
  /// max / mean: 1.0 = perfectly balanced, nranks = one rank does all the
  /// work; 0 when the phase never ran.
  double imbalance = 0;
  std::vector<double> per_rank_s;  ///< indexed like JobReport::ranks
};

/// One histogram name merged across ranks, with the per-rank summaries
/// kept so the merged quantiles can be checked against them.
struct MergedHistogram {
  std::string name;
  HistogramData merged;
  std::vector<HistogramSummary> per_rank;  ///< indexed like JobReport::ranks
};

/// Where each pipeline window's wall time went, summed over all windows
/// of all ranks.  "io" is compute-thread I/O exposure: io_wait plus any
/// preread/pwrite that ran inline on the compute thread (serial loop);
/// "pack" is the fill's gather/scatter; "other" is the unattributed
/// remainder (window bookkeeping, locking, submit overhead).
struct CriticalPathReport {
  long long windows = 0;
  double window_us = 0;
  double io_us = 0;
  double pack_us = 0;
  double other_us = 0;
  double exchange_us = 0;  ///< outside windows (phase exchanges), context
  /// (io + pack) / window — how much of the windows' wall time the
  /// breakdown explains.  1 - attributed_frac is "other".
  double attributed_frac = 0;
  long long io_limited_windows = 0;
  long long pack_limited_windows = 0;
  long long other_limited_windows = 0;

  const char* limiter() const {
    if (io_us >= pack_us && io_us >= other_us) return "io";
    return pack_us >= other_us ? "pack" : "other";
  }
};

/// Walk a trace snapshot and attribute window time (see
/// CriticalPathReport).  Matches spans by name + the numeric "win"
/// argument on compute-thread tracks, exactly like explain_pipeline.
CriticalPathReport critical_path(const std::vector<TraceEvent>& events);

/// One adaptive-policy decision (adapt::Advisor), recorded at
/// collective-op granularity.  The dimension fields are obs::Sampler
/// interned ids — the same id space OpSample uses — so the trail, the
/// sampling ring, and the Advisor's cost-model keys all reconcile.
/// Lives here (not in adapt/) so the report schema has no dependency on
/// the policy layer above it.
struct AdaptDecision {
  std::uint64_t seq = 0;      ///< decision order within the handle
  std::uint32_t op = 0;       ///< "write_at_all" / ... (interned)
  std::uint32_t backend = 0;  ///< storage target (interned)
  std::uint32_t net = 0;      ///< interconnect model (interned)
  std::uint64_t view_sig = 0;  ///< fileview signature (serialized-tree hash)
  int size_class = 0;          ///< log2 of the op's global payload bytes
  std::string arm;             ///< encoded tuning, e.g. "tp:d2:t1:zc:w22"
  bool probe = false;     ///< epsilon exploration, not the incumbent
  bool switched = false;  ///< the incumbent changed at this decision
  double cost_ns_per_byte = 0;       ///< observed outcome of this op
  double incumbent_ns_per_byte = 0;  ///< incumbent's estimate beforehand
};

struct JobReport {
  int nranks = 0;
  std::vector<int> ranks;  ///< rank ids, index space of per_rank vectors
  std::vector<PhaseStats> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< summed
  std::vector<std::pair<std::string, double>> peaks;  ///< max across ranks
  std::vector<MergedHistogram> hists;

  /// Rank with the largest "total" phase and its max/mean ratio; -1 when
  /// totals are absent or the job is balanced (imbalance below ~1.05 does
  /// not name a straggler — it would just be noise).
  int straggler_rank = -1;
  double straggler_imbalance = 0;

  std::optional<CriticalPathReport> critical;

  /// Process-global registry sections attached by the caller (rank 0's
  /// view: psrv per-server service histograms, AsyncIo op latencies,
  /// TracedFile file-op histograms) — shared-process in the simulation,
  /// so they complement rather than duplicate the per-rank data.
  std::vector<std::pair<std::string, HistogramSummary>> global_hists;

  /// Process-global counters attached by the caller (e.g. the psrv pool's
  /// summed ServerStats: psrv.requests, psrv.recalls_sent, ...).  Kept
  /// apart from `counters`, which are per-rank sums.
  std::vector<std::pair<std::string, std::uint64_t>> global_counters;

  /// Always-on sampling ring state (obs/snapshot.hpp).
  std::uint64_t samples_produced = 0;
  std::uint64_t samples_dropped = 0;

  /// Adaptive policy layer: decision trail and totals, attached by the
  /// caller (File::close) when llio_adaptive is engaged.  Empty policy
  /// name = adaptive off, no "adapt" section in the JSON.  adapt_dims is
  /// the interned-id -> name table covering every id the trail uses, so
  /// the report is self-contained (tools/check_report.py validates that
  /// each decision's dims resolve).
  std::string adapt_policy;
  std::uint64_t adapt_decisions = 0;
  std::uint64_t adapt_probes = 0;
  std::uint64_t adapt_switches = 0;
  std::vector<AdaptDecision> adapt_trail;  ///< most recent decisions
  std::vector<std::string> adapt_dims;     ///< index = interned id

  const PhaseStats* phase(const std::string& name) const;

  /// Schema "llio_report/v1" (validated by tools/check_report.py).
  std::string to_json() const;
};

/// Fold rank snapshots into a job view.  Pure function of its input, so
/// tests can drive it without a comm.
class Collector {
 public:
  static JobReport build(const std::vector<RankSnapshot>& ranks);
};

/// Collective aggregation: every rank contributes its snapshot and every
/// rank returns the identical JobReport.  CommT needs the sim::Comm
/// allgather shape (ConstByteSpan in, vector<ByteVec> out).
template <class CommT>
JobReport aggregate(CommT& comm, const RankSnapshot& mine) {
  const ByteVec raw = mine.serialize();
  std::vector<ByteVec> all =
      comm.allgather(ConstByteSpan(raw.data(), raw.size()));
  std::vector<RankSnapshot> snaps;
  snaps.reserve(all.size());
  for (const ByteVec& b : all)
    snaps.push_back(
        RankSnapshot::deserialize(ConstByteSpan(b.data(), b.size())));
  return Collector::build(snaps);
}

}  // namespace llio::obs
