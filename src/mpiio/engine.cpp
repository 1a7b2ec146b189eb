#include "mpiio/engine.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "mpiio/sieve.hpp"
#include "mpiio/twophase.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "pfs/view_io.hpp"

namespace llio::mpiio {

IoEngine::IoEngine(sim::Comm* comm, pfs::FilePtr file,
                   std::shared_ptr<pfs::RangeLock> locks, const Options& opts)
    : comm_(comm), file_(std::move(file)), locks_(std::move(locks)),
      opts_(opts), view_(default_view()) {
  LLIO_REQUIRE(comm_ != nullptr, Errc::InvalidArgument, "engine: null comm");
  LLIO_REQUIRE(file_ != nullptr, Errc::InvalidArgument, "engine: null file");
  LLIO_REQUIRE(opts_.file_buffer_size > 0 && opts_.pack_buffer_size > 0,
               Errc::InvalidArgument, "engine: non-positive buffer size");
}

Off IoEngine::check_access(Off offset_etypes, const void* buf, Off count,
                           const dt::Type& mt) const {
  LLIO_REQUIRE(offset_etypes >= 0, Errc::InvalidArgument,
               "access: negative offset");
  LLIO_REQUIRE(count >= 0, Errc::InvalidArgument, "access: negative count");
  LLIO_REQUIRE(mt != nullptr, Errc::InvalidDatatype, "access: null memtype");
  LLIO_REQUIRE(buf != nullptr || count * mt->size() == 0,
               Errc::InvalidArgument, "access: null buffer");
  return offset_etypes * view_.etype->size();
}

namespace {
// When the backend performs noncontiguous accesses itself (pfs::ViewIo —
// e.g. psrv view-class servers), ship it the filetype and a dense stream
// chunk instead of decomposing the access client-side.  The one view call
// replaces the whole sieve/direct strategy; it is counted as a single
// file op of payload size (no sieving amplification to report).
Off viewio_access(bool writing, pfs::ViewIo& vio, const View& view,
                  const Options& opts, IoOpStats& stats, Off stream_lo,
                  Off nbytes, StreamMover& mover) {
  auto view_io = [&](Off s, Byte* p, Off n) {
    WallTimer t;
    if (writing)
      vio.view_write(view.filetype, view.disp, s, ConstByteSpan(p, to_size(n)));
    else
      vio.view_read(view.filetype, view.disp, s, ByteSpan(p, to_size(n)));
    stats.file_s += t.seconds();
    (writing ? stats.file_write_ops : stats.file_read_ops) += 1;
    (writing ? stats.file_write_bytes : stats.file_read_bytes) += n;
  };
  Byte* direct = writing ? const_cast<Byte*>(mover.direct(0, nbytes))
                         : mover.direct_mut(0, nbytes);
  if (direct != nullptr) {
    view_io(stream_lo, direct, nbytes);
  } else {
    ByteVec buf(to_size(std::min(nbytes, opts.pack_buffer_size)));
    for (Off done = 0; done < nbytes;) {
      const Off n = std::min(nbytes - done, static_cast<Off>(buf.size()));
      if (!writing) view_io(stream_lo + done, buf.data(), n);
      WallTimer t;
      if (writing)
        mover.to_stream(buf.data(), done, n);
      else
        mover.from_stream(buf.data(), done, n);
      stats.copy_s += t.seconds();
      if (writing) view_io(stream_lo + done, buf.data(), n);
      done += n;
    }
  }
  stats.bytes_moved += nbytes;
  return nbytes;
}
}  // namespace

Off IoEngine::indep_access(bool writing, Off stream_lo, void* buf, Off count,
                           const dt::Type& mt) {
  const Off nbytes = count * mt->size();
  if (nbytes <= 0) return 0;
  const std::unique_ptr<StreamMover> mover = make_mover(buf, count, mt);
  ViewNav& vnav = nav();
  SieveContext ctx{*file_, *locks_, opts_, stats_, atomic_};
  const Off abs_lo = view_.disp + vnav.stream_to_file_start(stream_lo);
  const Off abs_hi =
      view_.dense() ? abs_lo + nbytes
                    : view_.disp + vnav.stream_to_file_end(stream_lo + nbytes);
  // Atomic mode: hold one lock over the whole access span.
  std::optional<pfs::ScopedRangeLock> lock;
  if (atomic_) lock.emplace(*locks_, abs_lo, abs_hi);
  if (view_.dense())
    return writing ? dense_write(ctx, abs_lo, nbytes, *mover)
                   : dense_read(ctx, abs_lo, nbytes, *mover);
  if (pfs::ViewIo* vio = file_->view_io())
    return viewio_access(writing, *vio, view_, opts_, stats_, stream_lo,
                         nbytes, *mover);
  return sieve_or_direct(ctx, writing, vnav, view_.disp, stream_lo, nbytes,
                         abs_lo, abs_hi, *mover);
}

std::unique_ptr<StreamMover> IoEngine::make_mover(const void* buf, Off count,
                                                  const dt::Type& mt) {
  if (mt->is_contiguous())
    return std::make_unique<ContigMover>(buf, mt->true_lb());
  return make_nc_mover(buf, count, mt);
}

namespace {
/// Times the whole operation into stats.total_s and folds the finished
/// per-op record into the cumulative counters.  Also opens a trace span
/// covering the operation on the calling rank's track, snapshots the
/// backend's async submission counters around the op so the delta lands
/// in async_file_ops / async_inflight_peak, and hands the finished record
/// to IoEngine::observe_op (per-rank histograms + sampling ring).
class OpTimer {
 public:
  OpTimer(const char* op, std::uint32_t op_id, IoEngine& engine,
          IoOpStats& stats, IoOpStats& cumulative,
          const pfs::FileBackend* backend)
      : op_id_(op_id), engine_(engine), stats_(stats),
        cumulative_(cumulative), backend_(backend), span_(op) {
    stats_ = IoOpStats{};
    if (backend_ != nullptr)
      if (const auto info = backend_->async_info())
        start_submitted_ = info->stats.submitted;
  }
  ~OpTimer() {
    int qd = 1;
    if (backend_ != nullptr)
      if (const auto info = backend_->async_info()) {
        stats_.async_file_ops = info->stats.submitted - start_submitted_;
        stats_.async_inflight_peak = info->stats.inflight_peak;
        qd = info->queue_depth;
      }
    stats_.total_s = timer_.seconds();
    cumulative_ += stats_;
    engine_.observe_op(op_id_, stats_, qd);
  }

 private:
  std::uint32_t op_id_;
  IoEngine& engine_;
  IoOpStats& stats_;
  IoOpStats& cumulative_;
  const pfs::FileBackend* backend_;
  std::uint64_t start_submitted_ = 0;
  WallTimer timer_;
  obs::Span span_;
};

long long to_us(double seconds) {
  return static_cast<long long>(seconds * 1e6);
}
}  // namespace

void IoEngine::observe_op(std::uint32_t op_id, const IoOpStats& s,
                          int queue_depth) {
  if (obs::metrics_enabled()) {
    local_metrics_.histogram("op.total_us").record(to_us(s.total_s));
    local_metrics_.histogram("op.pack_us").record(to_us(s.copy_s));
    local_metrics_.histogram("op.exchange_us").record(to_us(s.exchange_s));
    local_metrics_.histogram("op.preread_us").record(to_us(s.preread_s));
    local_metrics_.histogram("op.io_us").record(to_us(s.file_s));
    local_metrics_.histogram("op.wait_us").record(to_us(s.io_wait_s));
  }
  obs::Sampler& sampler = obs::Sampler::instance();
  if (!sampler.enabled()) return;
  if (!sample_dims_.resolved) {  // one-time per handle; op_mu_ is held
    sample_dims_.engine = sampler.intern(method_name(opts_.method));
    sample_dims_.backend =
        sampler.intern(opts_.backend.empty() ? "default" : opts_.backend);
    sample_dims_.net =
        sampler.intern(opts_.net_model.empty() ? "default" : opts_.net_model);
    sample_dims_.resolved = true;
  }
  obs::OpSample sample;
  sample.rank = comm_->rank();
  sample.op = op_id;
  sample.engine = sample_dims_.engine;
  sample.backend = sample_dims_.backend;
  sample.net = sample_dims_.net;
  sample.qd = queue_depth;
  sample.bytes = s.bytes_moved;
  sample.runs =
      static_cast<long long>(s.file_read_ops + s.file_write_ops);
  sample.dur_ns = static_cast<long long>(s.total_s * 1e9);
  sampler.record(sample);
}

void IoEngine::apply_op_tuning(const OpTuning& t) {
  std::lock_guard op_lock(op_mu_);
  opts_.cb_write = t.two_phase;
  opts_.cb_read = t.two_phase;
  opts_.pipeline_depth = t.pipeline_depth;
  opts_.pack_threads = t.pack_threads;
  opts_.zerocopy = t.zerocopy;
  opts_.file_buffer_size = t.file_buffer_size;
  on_tuning_changed();
}

Off IoEngine::read_at(Off offset_etypes, void* buf, Off count,
                      const dt::Type& mt) {
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  static const std::uint32_t kOpId = obs::Sampler::instance().intern("read_at");
  std::lock_guard op_lock(op_mu_);
  OpTimer op("read_at", kOpId, *this, stats_, cumulative_, file_.get());
  return indep_access(false, stream_lo, buf, count, mt);
}

Off IoEngine::write_at(Off offset_etypes, const void* buf, Off count,
                       const dt::Type& mt) {
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  static const std::uint32_t kOpId =
      obs::Sampler::instance().intern("write_at");
  std::lock_guard op_lock(op_mu_);
  OpTimer op("write_at", kOpId, *this, stats_, cumulative_, file_.get());
  return indep_access(true, stream_lo, const_cast<void*>(buf), count, mt);
}

Off IoEngine::read_at_all(Off offset_etypes, void* buf, Off count,
                          const dt::Type& mt) {
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  static const std::uint32_t kOpId =
      obs::Sampler::instance().intern("read_at_all");
  std::lock_guard op_lock(op_mu_);
  OpTimer op("read_at_all", kOpId, *this, stats_, cumulative_, file_.get());
  return TwoPhase(*this).run(false, stream_lo, buf, count, mt);
}

Off IoEngine::write_at_all(Off offset_etypes, const void* buf, Off count,
                           const dt::Type& mt) {
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  static const std::uint32_t kOpId =
      obs::Sampler::instance().intern("write_at_all");
  std::lock_guard op_lock(op_mu_);
  OpTimer op("write_at_all", kOpId, *this, stats_, cumulative_, file_.get());
  return TwoPhase(*this).run(true, stream_lo, const_cast<void*>(buf), count,
                             mt);
}

}  // namespace llio::mpiio
