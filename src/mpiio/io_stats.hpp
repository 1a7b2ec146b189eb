// Per-operation statistics: the overhead decomposition of paper §2.4/§3.3.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace llio::mpiio {

struct IoOpStats {
  double total_s = 0;       ///< wall time of the whole operation
  double list_build_s = 0;  ///< ol-list flatten / clip / merge time
  double copy_s = 0;        ///< pack/unpack/per-tuple copy time
  double file_s = 0;        ///< time in pread/pwrite
  double exchange_s = 0;    ///< time in communication calls
  double overlap_s = 0;     ///< worker-thread file time hidden behind the
                            ///< compute thread (collective pipeline only)
  double io_wait_s = 0;     ///< compute-thread time blocked waiting on the
                            ///< pipeline's I/O worker
  double preread_s = 0;     ///< the read-modify-write pre-read share of
                            ///< file_s (collective write windows)

  Off bytes_moved = 0;       ///< user payload bytes
  Off file_read_bytes = 0;   ///< bytes actually read from storage
  Off file_write_bytes = 0;  ///< bytes actually written to storage
  std::uint64_t file_read_ops = 0;
  std::uint64_t file_write_ops = 0;
  std::uint64_t file_extents = 0;  ///< file ranges a non-dense independent
                                   ///< access issued: one per sieve window
                                   ///< or direct run

  Off list_bytes_sent = 0;  ///< ol-list exchange volume (list-based only)
  Off data_bytes_sent = 0;  ///< data exchange volume (collective)
  Off list_mem_bytes = 0;   ///< peak ol-list memory this operation

  /// Mergeview contiguity analysis (paper §3.2.4).
  std::uint64_t preread_skipped_windows = 0;  ///< RMW pre-reads elided
  double merge_analysis_s = 0;  ///< time in the hole-freeness analysis
                                ///< (~0 on a MergeCache hit)
  std::uint64_t merge_contig_ops = 0;  ///< operations that took the
                                       ///< dense-disjoint bypass (the
                                       ///< two-phase exchange was skipped)

  /// Zero-copy descriptor I/O (llio_zerocopy).
  std::uint64_t zerocopy_windows = 0;  ///< dense windows/messages that went
                                       ///< straight from user memory to the
                                       ///< file or wire (no staging copy)
  std::uint64_t staged_fallback_windows = 0;  ///< windows that wanted
                                              ///< zero-copy but staged (run
                                              ///< budget or plan decline)
  std::uint64_t iov_runs = 0;  ///< descriptor entries shipped zero-copy
  Off staging_bytes_saved = 0;  ///< bytes that skipped a staging copy

  /// Parallel FOTF pack/unpack (navigation slicing + plan cache).
  std::uint64_t pack_threads_used = 0;  ///< max slices any one job ran with
  std::uint64_t plan_hits = 0;    ///< pack-plan replays of a cached plan
  std::uint64_t plan_misses = 0;  ///< plan compiles (or declined compiles)
  std::uint64_t pack_slices = 0;  ///< parallel slices executed
  double pack_slice_max_s = 0;    ///< slowest single slice
  double pack_slice_total_s = 0;  ///< summed slice time; imbalance =
                                  ///< max / (total / slices)

  /// Async queue-depth backend (llio_posix_qd / StripeLayout.queue_depth).
  std::uint64_t async_file_ops = 0;  ///< operations submitted to an AsyncIo
                                     ///< engine during this op
  std::uint64_t async_inflight_peak = 0;  ///< engine's peak concurrent ops

  IoOpStats& operator+=(const IoOpStats& o) {
    total_s += o.total_s;
    list_build_s += o.list_build_s;
    copy_s += o.copy_s;
    file_s += o.file_s;
    exchange_s += o.exchange_s;
    overlap_s += o.overlap_s;
    io_wait_s += o.io_wait_s;
    preread_s += o.preread_s;
    bytes_moved += o.bytes_moved;
    file_read_bytes += o.file_read_bytes;
    file_write_bytes += o.file_write_bytes;
    file_read_ops += o.file_read_ops;
    file_write_ops += o.file_write_ops;
    file_extents += o.file_extents;
    list_bytes_sent += o.list_bytes_sent;
    data_bytes_sent += o.data_bytes_sent;
    list_mem_bytes = list_mem_bytes > o.list_mem_bytes ? list_mem_bytes
                                                       : o.list_mem_bytes;
    preread_skipped_windows += o.preread_skipped_windows;
    merge_analysis_s += o.merge_analysis_s;
    merge_contig_ops += o.merge_contig_ops;
    zerocopy_windows += o.zerocopy_windows;
    staged_fallback_windows += o.staged_fallback_windows;
    iov_runs += o.iov_runs;
    staging_bytes_saved += o.staging_bytes_saved;
    pack_threads_used = pack_threads_used > o.pack_threads_used
                            ? pack_threads_used
                            : o.pack_threads_used;
    plan_hits += o.plan_hits;
    plan_misses += o.plan_misses;
    pack_slices += o.pack_slices;
    pack_slice_max_s = pack_slice_max_s > o.pack_slice_max_s
                           ? pack_slice_max_s
                           : o.pack_slice_max_s;
    pack_slice_total_s += o.pack_slice_total_s;
    async_file_ops += o.async_file_ops;
    async_inflight_peak = async_inflight_peak > o.async_inflight_peak
                              ? async_inflight_peak
                              : o.async_inflight_peak;
    return *this;
  }
};

/// Human-readable multi-line rendering of the decomposition (benches,
/// CLI --stats).
std::string format_stats(const IoOpStats& s);

}  // namespace llio::mpiio
