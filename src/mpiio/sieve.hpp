// Independent non-contiguous access: the data-sieving skeleton (paper
// §2.2) and the dense fast path, shared by both engines.  The engine
// differences live entirely in the ViewNav / StreamMover implementations
// passed in.
#pragma once

#include "common/bytes.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"
#include "mpiio/options.hpp"
#include "pfs/file_backend.hpp"
#include "pfs/range_lock.hpp"

namespace llio::mpiio {

struct SieveContext {
  pfs::FileBackend& file;
  pfs::RangeLock& locks;
  const Options& opts;
  IoOpStats& stats;
  /// True when the caller already holds a lock covering the whole access
  /// (atomic mode) or alone accesses the file (a psrv server's shard);
  /// the sieving loop must then skip its window locks.
  bool whole_range_locked = false;
};

/// A non-dense independent access of `nbytes` stream bytes of a view
/// whose stream starts at `stream_lo` (= offset_etypes * size(etype)),
/// spanning the file range [abs_lo, abs_hi).  The opts' ds_write/ds_read
/// pick the strategy (Automatic: sieve when the access fills at least
/// sieve_min_fill of its span):
///   sieving — the paper's §2.2 skeleton: per file_buffer_size window,
///             pre-read, one fotf scatter/gather, write back;
///   direct  — one vectored file access per iov_batch_max contiguous
///             runs, the other side of the trade-off the paper's §5
///             marks as future work: better when the view is sparse,
///             worse when runs are tiny.
/// Reads zero-fill data beyond EOF.  Returns bytes moved.
Off sieve_or_direct(SieveContext& ctx, bool writing, ViewNav& nav, Off disp,
                    Off stream_lo, Off nbytes, Off abs_lo, Off abs_hi,
                    StreamMover& mover);

/// Dense-view fast paths: the access maps to one contiguous file range
/// starting at `abs_lo`.  With llio_zerocopy=auto, a mover that yields
/// memory runs under the options' budget hands user-memory iovecs
/// straight to preadv/pwritev (no packed staging); otherwise the staged
/// loop runs exactly as before.
Off dense_write(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& src);
Off dense_read(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& dst);

/// The mem_runs() budget implied by the handle's options.
inline RunBudget zerocopy_budget(const Options& opts) {
  return RunBudget{
      opts.zerocopy_max_runs > 0 ? to_size(opts.zerocopy_max_runs) : 1,
      opts.zerocopy_min_run};
}

/// Timed storage accesses (shared with the collective paths):
/// pread zero-fills past EOF — the view is logically sparse.
void timed_pread_zero_fill(SieveContext& ctx, Off pos, ByteSpan buf);
void timed_pwrite(SieveContext& ctx, Off pos, ConstByteSpan buf);

/// Vectored counterparts: a whole batch counts as one file op.
/// (FileBackend::preadv already zero-fills past EOF.)
void timed_preadv_zero_fill(SieveContext& ctx,
                            std::span<const pfs::IoVec> iov);
void timed_pwritev(SieveContext& ctx, std::span<const pfs::ConstIoVec> iov);

}  // namespace llio::mpiio
