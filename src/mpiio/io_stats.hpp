// Per-operation statistics: the overhead decomposition of paper §2.4/§3.3.
//
// Every field is declared once, in the LLIO_IO_OP_STATS table below.  The
// struct members, operator+=, format_stats, the JobReport phases,
// counters and peaks (File::close) and the per-rank op.<phase>_us
// histograms (IoEngine::observe_op) are all generated from it, so adding
// a counter or a timed phase is one table line.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/bytes.hpp"
#include "obs/trace.hpp"

namespace llio::mpiio {

/// How a stats field merges (operator+=, across ops and across ranks) and
/// where it lands in the JobReport.
enum class StatKind {
  Time,   ///< seconds, summed; a report phase and an op.<report>_us histogram
  Count,  ///< summed; a report counter
  Peak,   ///< high-water mark, merged by max; a report peak
};

/// One table line, as handed to for_each_field visitors.
struct StatField {
  const char* name;    ///< the member name
  StatKind kind;
  const char* report;  ///< JobReport phase / counter / peak name
  const char* hist;    ///< "op.<report>_us" (used for Time fields)
};

template <class T>
void merge_stat(StatKind kind, T& into, const T& from) {
  if (kind == StatKind::Peak)
    into = into > from ? into : from;
  else
    into += from;
}

// X(type, member, kind, report name): one line per field.
#define LLIO_IO_OP_STATS(X)                                                  \
  /* wall time of the whole operation */                                     \
  X(double, total_s, Time, "total")                                          \
  /* ol-list flatten / clip / merge time */                                  \
  X(double, list_build_s, Time, "list_build")                                \
  /* pack/unpack/per-tuple copy time */                                      \
  X(double, copy_s, Time, "pack")                                            \
  /* time in pread/pwrite */                                                 \
  X(double, file_s, Time, "io")                                              \
  /* time in communication calls */                                          \
  X(double, exchange_s, Time, "exchange")                                    \
  /* worker-thread file time hidden behind the compute thread */             \
  /* (collective pipeline only) */                                           \
  X(double, overlap_s, Time, "overlap")                                      \
  /* compute-thread time blocked waiting on the pipeline's I/O worker */     \
  X(double, io_wait_s, Time, "wait")                                         \
  /* the read-modify-write pre-read share of file_s (collective writes) */   \
  X(double, preread_s, Time, "preread")                                      \
  /* user payload bytes */                                                   \
  X(Off, bytes_moved, Count, "bytes_moved")                                  \
  /* bytes actually read from / written to storage, and the calls */         \
  X(Off, file_read_bytes, Count, "file_read_bytes")                          \
  X(Off, file_write_bytes, Count, "file_write_bytes")                        \
  X(std::uint64_t, file_read_ops, Count, "file_read_ops")                    \
  X(std::uint64_t, file_write_ops, Count, "file_write_ops")                  \
  /* file ranges a non-dense independent access issued: one per sieve */     \
  /* window or direct run */                                                 \
  X(std::uint64_t, file_extents, Count, "file_extents")                      \
  /* ol-list exchange volume (list-based only) */                            \
  X(Off, list_bytes_sent, Count, "list_bytes_sent")                          \
  /* data exchange volume (collective) */                                    \
  X(Off, data_bytes_sent, Count, "data_bytes_sent")                          \
  /* peak ol-list memory */                                                  \
  X(Off, list_mem_bytes, Peak, "list_mem_bytes")                             \
  /* mergeview analysis (paper §3.2.4): RMW pre-reads elided, time in the */ \
  /* hole-freeness analysis (~0 on a MergeCache hit), operations that    */  \
  /* took the dense-disjoint bypass (two-phase exchange skipped) */          \
  X(std::uint64_t, preread_skipped_windows, Count, "preread_skipped_windows") \
  X(double, merge_analysis_s, Time, "merge_analysis")                        \
  X(std::uint64_t, merge_contig_ops, Count, "merge_contig_ops")              \
  /* zero-copy descriptor I/O (llio_zerocopy): dense windows/messages that */ \
  /* went straight between user memory and the file or wire, windows that */ \
  /* wanted zero-copy but staged (run budget or plan decline), descriptor */ \
  /* entries shipped, bytes that skipped a staging copy */                   \
  X(std::uint64_t, zerocopy_windows, Count, "zerocopy_windows")              \
  X(std::uint64_t, staged_fallback_windows, Count, "staged_fallback_windows") \
  X(std::uint64_t, iov_runs, Count, "iov_runs")                              \
  X(Off, staging_bytes_saved, Count, "staging_bytes_saved")                  \
  /* parallel FOTF pack/unpack: max slices any one job ran with, plan */     \
  /* replays and compiles (or declined compiles), slices executed, the  */   \
  /* slowest single slice and the summed slice time (imbalance = max / */    \
  /* (total / slices)) */                                                    \
  X(std::uint64_t, pack_threads_used, Peak, "pack_threads_used")             \
  X(std::uint64_t, plan_hits, Count, "plan_hits")                            \
  X(std::uint64_t, plan_misses, Count, "plan_misses")                        \
  X(std::uint64_t, pack_slices, Count, "pack_slices")                        \
  X(double, pack_slice_max_s, Peak, "pack_slice_max_s")                      \
  X(double, pack_slice_total_s, Time, "pack_slice_total")                    \
  /* async queue-depth backend: operations submitted to an AsyncIo */        \
  /* engine during the op, and the engine's peak concurrent ops */           \
  X(std::uint64_t, async_file_ops, Count, "async_file_ops")                  \
  X(std::uint64_t, async_inflight_peak, Peak, "async_inflight_peak")

struct IoOpStats {
#define LLIO_STATS_MEMBER(type, name, kind, report) type name = 0;
  LLIO_IO_OP_STATS(LLIO_STATS_MEMBER)
#undef LLIO_STATS_MEMBER

  IoOpStats& operator+=(const IoOpStats& o) {
#define LLIO_STATS_MERGE(type, name, kind, report) \
  merge_stat(StatKind::kind, name, o.name);
    LLIO_IO_OP_STATS(LLIO_STATS_MERGE)
#undef LLIO_STATS_MERGE
    return *this;
  }
};

/// Call fn(const StatField&, value) for every IoOpStats field, in table
/// order; `value` is a (const) reference to the member.
template <class Stats, class Fn>
  requires std::same_as<std::remove_const_t<Stats>, IoOpStats>
void for_each_field(Stats& s, Fn&& fn) {
#define LLIO_STATS_VISIT(type, name, kind, report) \
  fn(StatField{#name, StatKind::kind, report, "op." report "_us"}, s.name);
  LLIO_IO_OP_STATS(LLIO_STATS_VISIT)
#undef LLIO_STATS_VISIT
}

/// Human-readable rendering of every field, one line each (benches, CLI
/// --stats).
std::string format_stats(const IoOpStats& s);

/// Times the enclosing scope into one IoOpStats time field (one clock
/// pair) and, given a span name, traces the same scope as an obs::Span of
/// that name.  Without a name, or with tracing off, no span is opened.
class Phase {
 public:
  explicit Phase(double& field, const char* span = nullptr)
      : span_(span), field_(field), t0_(Clock::now()) {}
  ~Phase() {
    field_ += std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  void arg(const char* key, long long v) { span_.arg(key, v); }
  void arg(const char* key, const char* text) { span_.arg(key, text); }

 private:
  using Clock = std::chrono::steady_clock;
  obs::Span span_;
  double& field_;
  Clock::time_point t0_;
};

}  // namespace llio::mpiio
