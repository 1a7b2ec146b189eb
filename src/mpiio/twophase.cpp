#include "mpiio/twophase.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "mpiio/engine.hpp"
#include "mpiio/mergeview.hpp"
#include "mpiio/pipeline.hpp"
#include "mpiio/sieve.hpp"
#include "obs/trace.hpp"

namespace llio::mpiio {

std::vector<AccessRange> exchange_ranges(sim::Comm& comm,
                                         const AccessRange& mine) {
  ByteVec raw(sizeof(AccessRange));
  std::memcpy(raw.data(), &mine, sizeof(AccessRange));
  auto gathered = comm.allgather(raw, sim::MsgClass::Meta);
  std::vector<AccessRange> out(gathered.size());
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    LLIO_REQUIRE(gathered[i].size() == sizeof(AccessRange), Errc::Protocol,
                 "exchange_ranges: bad payload size");
    std::memcpy(&out[i], gathered[i].data(), sizeof(AccessRange));
  }
  return out;
}

GlobalRange global_range(const std::vector<AccessRange>& ranges) {
  GlobalRange g;
  for (const AccessRange& r : ranges) {
    if (r.nbytes <= 0) continue;
    if (!g.any) {
      g.lo = r.abs_lo;
      g.hi = r.abs_hi;
      g.any = true;
    } else {
      g.lo = std::min(g.lo, r.abs_lo);
      g.hi = std::max(g.hi, r.abs_hi);
    }
  }
  return g;
}

std::vector<Domain> partition_domains(const GlobalRange& g, int niops,
                                      Off align) {
  LLIO_REQUIRE(niops >= 1, Errc::InvalidArgument, "partition: niops < 1");
  LLIO_REQUIRE(align >= 1, Errc::InvalidArgument, "partition: align < 1");
  std::vector<Domain> out(to_size(Off{niops}));
  if (!g.any) return out;
  const Off total = g.hi - g.lo;
  // Equal shares rounded up to the alignment; trailing IOPs may be empty.
  // Both the rounding and the `lo + chunk` advance are guarded against
  // signed overflow for ranges near the Off maximum (overflow used to
  // wrap chunk negative and emit empty *leading* domains that dropped
  // coverage of the tail of the range).
  const Off max_off = std::numeric_limits<Off>::max();
  Off chunk = total / niops + (total % niops != 0 ? 1 : 0);
  chunk = chunk <= max_off - (align - 1) ? round_up(chunk, align) : total;
  Off lo = g.lo;
  for (int i = 0; i < niops; ++i) {
    const Off hi = g.hi - lo > chunk ? lo + chunk : g.hi;
    out[to_size(Off{i})] = {lo, hi};
    lo = hi;
  }
  // Invariant the IOP loops rely on: only trailing domains are empty.
  std::stable_partition(out.begin(), out.end(),
                        [](const Domain& d) { return !d.empty(); });
  return out;
}

int effective_iops(int io_procs_opt, int comm_size) {
  if (io_procs_opt <= 0 || io_procs_opt > comm_size) return comm_size;
  return io_procs_opt;
}

void put_off(ByteVec& out, Off v) {
  Byte raw[sizeof(Off)];
  std::memcpy(raw, &v, sizeof(Off));
  out.insert(out.end(), raw, raw + sizeof(Off));
}

Off get_off(ConstByteSpan data, std::size_t at) {
  LLIO_REQUIRE(at <= data.size() && sizeof(Off) <= data.size() - at,
               Errc::Protocol, "short message");
  Off v;
  std::memcpy(&v, data.data() + at, sizeof(Off));
  return v;
}

namespace {

/// Run one exchange inside an "exchange" span tagged `what`, adding its
/// wall time to stats.exchange_s.
template <class Fn>
auto timed_exchange(IoOpStats& stats, const char* what, Fn&& fn) {
  obs::Span span("exchange");
  span.arg("what", what);
  StopWatch w;
  w.start();
  auto out = fn();
  w.stop();
  stats.exchange_s += w.seconds();
  return out;
}

}  // namespace

void TwoPhase::run_windows(const Domain& dom, TwoPhaseStrategy& st,
                           std::span<const Source> srcs, bool writing,
                           const DomainWindows* verdict) {
  SieveContext ctx{*e_.file_, *e_.locks_, e_.opts_, e_.stats_};
  const Off fbs = e_.opts_.file_buffer_size;
  const MergeContig mode = e_.opts_.merge_contig;
  // The strategy's window hook may advance per-source cursors, so pieces
  // are produced by `next` (strictly in window order, on this thread) and
  // handed to `fill` through a queue.
  std::deque<std::vector<Piece>> queued;
  Off pos = dom.lo;
  auto next = [&](WindowPlan& plan) {
    while (pos < dom.hi) {
      const Off win_lo = pos;
      const Off win_hi = std::min(dom.hi, pos + fbs);
      pos = win_hi;
      std::vector<Piece> pieces;
      st.window(srcs, win_lo, win_hi, pieces);
      if (pieces.empty()) continue;
      plan.lo = win_lo;
      plan.hi = win_hi;
      // Reads always load the window; writes pre-read unless Force says
      // never or the Auto verdict says the window is covered hole-free.
      plan.preread = !writing || mode == MergeContig::Off ||
                     (mode == MergeContig::Auto && !verdict->dense_at(win_lo));
      plan.writeback = writing;
      plan.lock = writing;
      queued.push_back(std::move(pieces));
      return true;
    }
    return false;
  };
  auto fill = [&](const WindowPlan& plan, ByteSpan win) {
    const std::vector<Piece> pieces = std::move(queued.front());
    queued.pop_front();
    obs::Span span("pack");
    span.arg("win", plan.index);
    span.arg("pieces", to_off(pieces.size()));
    StopWatch cw;
    cw.start();
    st.fill(srcs, plan, win, pieces, writing);
    cw.stop();
    e_.stats_.copy_s += cw.seconds();
  };
  run_window_pipeline(ctx, e_.opts_.pipeline_depth,
                      std::min(fbs, dom.hi - dom.lo), next, fill);
}

Off TwoPhase::run(bool writing, Off stream_lo, void* buf, Off count,
                  const dt::Type& mt) {
  IoOpStats& stats = e_.stats_;
  const Options& opts = e_.opts_;
  sim::Comm& comm = *e_.comm_;
  // Collective buffering disabled (romio_cb_write/romio_cb_read hint).
  if (!(writing ? opts.cb_write : opts.cb_read)) {
    const Off n = e_.indep_access(writing, stream_lo, buf, count, mt);
    comm.barrier();
    return n;
  }
  const Off nbytes = count * mt->size();
  const int p = comm.size();
  const int rank = comm.rank();
  const int niops = effective_iops(opts.io_procs, p);
  const Off fbs = opts.file_buffer_size;

  // Phase 0: exchange access ranges (tiny, Meta).
  AccessRange mine{stream_lo, nbytes, 0, 0};
  if (nbytes > 0) {
    ViewNav& nav = e_.nav();
    mine.abs_lo = e_.view_.disp + nav.stream_to_file_start(stream_lo);
    mine.abs_hi = e_.view_.disp + nav.stream_to_file_end(stream_lo + nbytes);
  }
  const std::vector<AccessRange> ranges = timed_exchange(
      stats, "ranges", [&] { return exchange_ranges(comm, mine); });
  const GlobalRange g = global_range(ranges);
  if (!g.any) {
    comm.barrier();
    return 0;
  }

  // Mergeview bypass: every participant's restriction to its access range
  // is one contiguous extent — each rank accesses its own extent directly:
  // no descriptors, no exchange, no RMW.  Writers must also be pairwise
  // disjoint; overlapping readers are harmless.
  if (opts.merge_contig != MergeContig::Off &&
      (writing ? ranges_dense_disjoint(ranges) : ranges_dense(ranges))) {
    if (nbytes > 0) {
      SieveContext ctx{*e_.file_, *e_.locks_, opts, stats};
      auto m = e_.make_mover(buf, count, mt);
      if (writing) {
        pfs::ScopedRangeLock lock(*e_.locks_, mine.abs_lo, mine.abs_hi);
        dense_write(ctx, mine.abs_lo, nbytes, *m);
      } else {
        dense_read(ctx, mine.abs_lo, nbytes, *m);
      }
    }
    comm.barrier();
    ++stats.merge_contig_ops;
    return nbytes;  // dense_write/dense_read already counted bytes_moved
  }

  const std::vector<Domain> domains = partition_domains(g, niops, fbs);
  const std::unique_ptr<TwoPhaseStrategy> st = e_.two_phase_strategy();
  const bool in_data = writing && st->descriptor_in_data();
  std::unique_ptr<StreamMover> mover;
  if (nbytes > 0) mover = e_.make_mover(buf, count, mt);
  // llio_zerocopy=auto: describe a slice of my stream as user-memory runs
  // under the budget (gather-on-send, scatter-on-recv), else stage it.
  const RunBudget budget = zerocopy_budget(opts);
  auto mem_runs = [&](const Slice& sl, std::vector<ByteSpan>& runs) {
    if (opts.zerocopy != Zerocopy::Auto) return false;
    if (!mover->mem_runs(sl.s1 - stream_lo, sl.s2 - sl.s1, budget, runs)) {
      ++stats.staged_fallback_windows;
      return false;
    }
    ++stats.zerocopy_windows;
    stats.iov_runs += runs.size();
    stats.staging_bytes_saved += sl.s2 - sl.s1;
    return true;
  };

  // Phase 1 (AP side): one descriptor per IOP — alone in a Meta exchange
  // (reads, and writes whose strategy says so) or as the header of the
  // data message — and, for writes, the data slice.
  std::vector<Slice> slices = st->describe(mine, domains);
  std::vector<ByteVec> desc_in;
  if (!in_data) {
    std::vector<ByteVec> desc_out(to_size(Off{p}));
    for (int i = 0; i < niops; ++i) {
      Slice& sl = slices[to_size(Off{i})];
      if (sl.s2 > sl.s1) desc_out[to_size(Off{i})] = std::move(sl.wire);
    }
    desc_in = timed_exchange(stats, "descriptors", [&] {
      return comm.alltoall(std::move(desc_out), sim::MsgClass::Meta);
    });
  }
  std::vector<ByteVec> data_in;
  if (writing) {
    std::vector<sim::GatherMsg> outgoing(to_size(Off{p}));
    if (nbytes > 0) {
      obs::Span span("pack");
      span.arg("what", "phase1_gather");
      std::vector<ByteSpan> runs;
      for (int i = 0; i < niops; ++i) {
        Slice& sl = slices[to_size(Off{i})];
        if (sl.s2 <= sl.s1) continue;
        sim::GatherMsg& msg = outgoing[to_size(Off{i})];
        if (in_data) msg.header = std::move(sl.wire);
        runs.clear();
        if (mem_runs(sl, runs)) {
          msg.runs.assign(runs.begin(), runs.end());
        } else {
          const std::size_t hdr = msg.header.size();
          msg.header.resize(hdr + to_size(sl.s2 - sl.s1));
          StopWatch cw;
          cw.start();
          mover->to_stream(msg.header.data() + hdr, sl.s1 - stream_lo,
                           sl.s2 - sl.s1);
          cw.stop();
          stats.copy_s += cw.seconds();
        }
        stats.data_bytes_sent += sl.s2 - sl.s1;
      }
    }
    data_in = timed_exchange(stats, "data", [&] {
      return comm.alltoall_gather(std::move(outgoing), sim::MsgClass::Data);
    });
  }

  // Phase 2 (IOP side): decode every sender's descriptor, then walk my
  // domain window by window, patching (write) or gathering replies (read).
  std::vector<ByteVec> replies(to_size(Off{p}));
  if (rank < niops && !domains[to_size(Off{rank})].empty()) {
    const Domain dom = domains[to_size(Off{rank})];
    std::vector<Source> srcs;
    for (int r = 0; r < p; ++r) {
      const ByteVec& desc = in_data ? data_in[to_size(Off{r})]
                                    : desc_in[to_size(Off{r})];
      if (desc.empty()) continue;
      Source src;
      src.rank = r;
      const std::size_t hdr =
          st->decode(desc, in_data, ranges[to_size(Off{r})], dom, src);
      const Off n = src.s_hi - src.s_lo;
      if (!writing) {
        replies[to_size(Off{r})].resize(to_size(n));
        src.data = replies[to_size(Off{r})].data();
        stats.data_bytes_sent += n;
      } else {
        ByteVec& data = data_in[to_size(Off{r})];
        LLIO_REQUIRE(in_data || data.size() == to_size(n), Errc::Protocol,
                     "write_at_all: data/descriptor size mismatch");
        src.data = data.data() + (in_data ? hdr : 0);
      }
      srcs.push_back(src);
    }

    // Mergeview analysis (§3.2.4): per-window hole-freeness of a write,
    // memoized across repeated collectives on the same view.  Off/Force
    // skip it.
    const DomainWindows* verdict = nullptr;
    if (writing && opts.merge_contig == MergeContig::Auto) {
      obs::Span span("merge_analysis");
      StopWatch mw;
      mw.start();
      verdict = &e_.merge_cache_.get(
          MergeCache::Key{e_.view_epoch_, dom.lo, dom.hi, fbs, ranges},
          [&] { return st->analyze(dom, fbs, ranges); });
      mw.stop();
      stats.merge_analysis_s += mw.seconds();
    }
    run_windows(dom, *st, srcs, writing, verdict);
  }

  if (!writing) {
    // Phase 3 (AP side): replies whose slice has memory runs are delivered
    // by the exchange straight into the user buffer (their incoming slot
    // comes back empty); the rest are unpacked.
    std::vector<std::vector<ByteSpan>> scatter(to_size(Off{p}));
    if (nbytes > 0) {
      for (int i = 0; i < niops; ++i) {
        const Slice& sl = slices[to_size(Off{i})];
        if (sl.s2 > sl.s1) mem_runs(sl, scatter[to_size(Off{i})]);
      }
    }
    const std::vector<ByteVec> incoming = timed_exchange(stats, "data", [&] {
      return comm.alltoall_scatter(std::move(replies), scatter,
                                   sim::MsgClass::Data);
    });
    if (nbytes > 0) {
      obs::Span span("pack");
      span.arg("what", "phase3_unpack");
      StopWatch cw;
      cw.start();
      for (int i = 0; i < niops; ++i) {
        const Slice& sl = slices[to_size(Off{i})];
        if (sl.s2 <= sl.s1 || !scatter[to_size(Off{i})].empty()) continue;
        const ByteVec& reply = incoming[to_size(Off{i})];
        LLIO_REQUIRE(reply.size() == to_size(sl.s2 - sl.s1), Errc::Protocol,
                     "read_at_all: bad reply size");
        mover->from_stream(reply.data(), sl.s1 - stream_lo, sl.s2 - sl.s1);
      }
      cw.stop();
      stats.copy_s += cw.seconds();
    }
  }
  comm.barrier();
  stats.bytes_moved += nbytes;
  return nbytes;
}

}  // namespace llio::mpiio
