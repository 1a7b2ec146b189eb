#include "mpiio/sieve.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace llio::mpiio {

namespace {

// Zero-copy dense transfer: materialize the mover's memory runs and hand
// them to one vectored access per iov_batch_max entries.  The runs tile
// the dense stream, so run k's file offset is abs_lo plus the combined
// length of the runs before it.
bool zerocopy_dense_write(SieveContext& ctx, Off abs_lo, Off nbytes,
                          StreamMover& src) {
  if (ctx.opts.zerocopy != Zerocopy::Auto) return false;
  std::vector<ByteSpan> runs;
  if (!src.mem_runs(0, nbytes, zerocopy_budget(ctx.opts), runs)) return false;
  obs::Span span("zerocopy");
  span.arg("dir", "write");
  span.arg("runs", to_off(runs.size()));
  span.arg("bytes", nbytes);
  const std::size_t batch = to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<pfs::ConstIoVec> iov;
  iov.reserve(std::min(batch, runs.size()));
  Off pos = abs_lo;
  for (const ByteSpan& r : runs) {
    iov.push_back({pos, ConstByteSpan(r.data(), r.size())});
    pos += to_off(r.size());
    if (iov.size() == batch) {
      timed_pwritev(ctx, iov);
      iov.clear();
    }
  }
  timed_pwritev(ctx, iov);
  ctx.stats.zerocopy_windows += 1;
  ctx.stats.iov_runs += runs.size();
  ctx.stats.staging_bytes_saved += nbytes;
  return true;
}

bool zerocopy_dense_read(SieveContext& ctx, Off abs_lo, Off nbytes,
                         StreamMover& dst) {
  if (ctx.opts.zerocopy != Zerocopy::Auto) return false;
  std::vector<ByteSpan> runs;
  if (!dst.mem_runs(0, nbytes, zerocopy_budget(ctx.opts), runs)) return false;
  obs::Span span("zerocopy");
  span.arg("dir", "read");
  span.arg("runs", to_off(runs.size()));
  span.arg("bytes", nbytes);
  const std::size_t batch = to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<pfs::IoVec> iov;
  iov.reserve(std::min(batch, runs.size()));
  Off pos = abs_lo;
  for (const ByteSpan& r : runs) {
    iov.push_back({pos, r});
    pos += to_off(r.size());
    if (iov.size() == batch) {
      timed_preadv_zero_fill(ctx, iov);
      iov.clear();
    }
  }
  timed_preadv_zero_fill(ctx, iov);
  ctx.stats.zerocopy_windows += 1;
  ctx.stats.iov_runs += runs.size();
  ctx.stats.staging_bytes_saved += nbytes;
  return true;
}

}  // namespace

void timed_pread_zero_fill(SieveContext& ctx, Off pos, ByteSpan buf) {
  Off got = 0;
  {
    Phase io(ctx.stats.file_s);
    got = ctx.file.pread(pos, buf);
  }
  ctx.stats.file_read_bytes += got;
  ctx.stats.file_read_ops += 1;
  if (to_size(got) < buf.size())
    std::memset(buf.data() + got, 0, buf.size() - to_size(got));
}

void timed_pwrite(SieveContext& ctx, Off pos, ConstByteSpan buf) {
  {
    Phase io(ctx.stats.file_s);
    ctx.file.pwrite(pos, buf);
  }
  ctx.stats.file_write_bytes += to_off(buf.size());
  ctx.stats.file_write_ops += 1;
}

void timed_preadv_zero_fill(SieveContext& ctx,
                            std::span<const pfs::IoVec> iov) {
  if (iov.empty()) return;
  Off got = 0;
  {
    Phase io(ctx.stats.file_s);
    got = ctx.file.preadv(iov);
  }
  ctx.stats.file_read_bytes += got;
  ctx.stats.file_read_ops += 1;
}

void timed_pwritev(SieveContext& ctx, std::span<const pfs::ConstIoVec> iov) {
  if (iov.empty()) return;
  Off total = 0;
  for (const pfs::ConstIoVec& v : iov) total += to_off(v.buf.size());
  {
    Phase io(ctx.stats.file_s);
    ctx.file.pwritev(iov);
  }
  ctx.stats.file_write_bytes += total;
  ctx.stats.file_write_ops += 1;
}

namespace {

// The data-sieving window loop (paper §2.2): per file_buffer_size window
// of [abs_lo, abs_hi), pre-read it (a write skips that when its data
// covers the window), move the window's stream bytes with one fotf
// scatter/gather, and write a write's window back.
Off sieve_access(SieveContext& ctx, bool writing, ViewNav& nav, Off disp,
                 Off stream_lo, Off nbytes, Off abs_lo, Off abs_hi,
                 StreamMover& mover) {
  const Off fbs = ctx.opts.file_buffer_size;
  ByteVec fbuf(to_size(std::min(fbs, abs_hi - abs_lo)));
  ByteVec packbuf;

  Off done = 0;
  for (Off pos = abs_lo; pos < abs_hi;) {
    const Off win_hi = std::min(abs_hi, pos + fbs);
    const Off win = win_hi - pos;
    const Off bias = pos - disp;
    const Off avail = nav.file_to_stream(win_hi - disp) - (stream_lo + done);
    LLIO_ASSERT(avail >= 0 && avail <= nbytes - done,
                "sieve: bad window stream count");
    if (avail == 0) {
      pos = win_hi;
      continue;
    }
    std::optional<pfs::ScopedRangeLock> lock;
    if (writing && !ctx.whole_range_locked)
      lock.emplace(ctx.locks, pos, win_hi);
    if (!writing || avail != win || !ctx.opts.sieve_skip_covered_read)
      timed_pread_zero_fill(ctx, pos, ByteSpan(fbuf.data(), to_size(win)));

    {
      Phase copy(ctx.stats.copy_s);
      const Off s = stream_lo + done;
      if (const Byte* src = writing ? mover.direct(done, avail) : nullptr) {
        nav.scatter(fbuf.data(), bias, s, src, avail);
      } else if (Byte* dst =
                     writing ? nullptr : mover.direct_mut(done, avail)) {
        nav.gather(dst, fbuf.data(), bias, s, avail);
      } else {
        if (packbuf.empty())
          packbuf.resize(to_size(ctx.opts.pack_buffer_size));
        for (Off sub = 0; sub < avail;) {
          const Off n = std::min<Off>(to_off(packbuf.size()), avail - sub);
          if (writing) {
            mover.to_stream(packbuf.data(), done + sub, n);
            nav.scatter(fbuf.data(), bias, s + sub, packbuf.data(), n);
          } else {
            nav.gather(packbuf.data(), fbuf.data(), bias, s + sub, n);
            mover.from_stream(packbuf.data(), done + sub, n);
          }
          sub += n;
        }
      }
    }

    if (writing)
      timed_pwrite(ctx, pos, ConstByteSpan(fbuf.data(), to_size(win)));
    ctx.stats.file_extents += 1;
    done += avail;
    pos = win_hi;
  }
  LLIO_ASSERT(done == nbytes, "sieve: stream not exhausted");
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

// Direct (non-sieving) access: one *vectored* file access per
// iov_batch_max contiguous runs instead of one syscall per run.  Runs
// whose user memory is contiguous are referenced in place; others are
// staged (packed before a write, unpacked after a read).  Staged runs
// record stage *offsets* (not pointers) so the stage buffer may grow
// while a batch accumulates.
Off direct_access(SieveContext& ctx, bool writing, ViewNav& nav, Off disp,
                  Off stream_lo, Off nbytes, StreamMover& mover) {
  struct Seg {
    Off off;    ///< absolute file offset
    Byte* ptr;  ///< direct user memory, or nullptr if staged
    Off stage_off;
    Off rel;  ///< stream-relative offset
    Off len;
  };
  const std::size_t batch_max =
      to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<Seg> segs;
  ByteVec stage;
  std::vector<pfs::IoVec> iov;
  std::vector<pfs::ConstIoVec> civ;

  auto flush = [&] {
    if (segs.empty()) return;
    iov.clear();
    civ.clear();
    for (const Seg& g : segs) {
      const ByteSpan buf(g.ptr ? g.ptr : stage.data() + g.stage_off,
                         to_size(g.len));
      if (writing)
        civ.push_back({g.off, buf});
      else
        iov.push_back({g.off, buf});
    }
    if (writing) {
      timed_pwritev(ctx, civ);
    } else {
      timed_preadv_zero_fill(ctx, iov);
      Phase copy(ctx.stats.copy_s);
      for (const Seg& g : segs)
        if (!g.ptr) mover.from_stream(stage.data() + g.stage_off, g.rel, g.len);
    }
    ctx.stats.file_extents += segs.size();
    segs.clear();
    stage.clear();
  };

  nav.for_each_segment(
      stream_lo, nbytes, [&](Off mem, Off stream, Off len) {
        const Off rel = stream - stream_lo;
        // A write only reads through `direct`.
        if (Byte* direct = writing ? const_cast<Byte*>(mover.direct(rel, len))
                                   : mover.direct_mut(rel, len)) {
          segs.push_back({disp + mem, direct, 0, rel, len});
          if (segs.size() >= batch_max) flush();
          return;
        }
        for (Off sub = 0; sub < len;) {
          const Off room = ctx.opts.pack_buffer_size - to_off(stage.size());
          if (room <= 0) {
            flush();
            continue;
          }
          const Off n = std::min(len - sub, room);
          const Off at = to_off(stage.size());
          stage.resize(to_size(at + n));
          if (writing) {
            Phase copy(ctx.stats.copy_s);
            mover.to_stream(stage.data() + at, rel + sub, n);
          }
          segs.push_back({disp + mem + sub, nullptr, at, rel + sub, n});
          sub += n;
          if (segs.size() >= batch_max) flush();
        }
      });
  flush();
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

bool choose_sieving(const Options& opts, bool writing, Off nbytes, Off abs_lo,
                    Off abs_hi) {
  const Sieving mode = writing ? opts.ds_write : opts.ds_read;
  switch (mode) {
    case Sieving::Always: return true;
    case Sieving::Never: return false;
    case Sieving::Automatic: {
      const Off span = abs_hi - abs_lo;
      if (span <= 0) return true;
      const double fill =
          static_cast<double>(nbytes) / static_cast<double>(span);
      return fill >= opts.sieve_min_fill;
    }
  }
  return true;
}

}  // namespace

Off sieve_or_direct(SieveContext& ctx, bool writing, ViewNav& nav, Off disp,
                    Off stream_lo, Off nbytes, Off abs_lo, Off abs_hi,
                    StreamMover& mover) {
  if (nbytes <= 0) return 0;
  if (choose_sieving(ctx.opts, writing, nbytes, abs_lo, abs_hi))
    return sieve_access(ctx, writing, nav, disp, stream_lo, nbytes, abs_lo,
                        abs_hi, mover);
  return direct_access(ctx, writing, nav, disp, stream_lo, nbytes, mover);
}

Off dense_write(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& src) {
  if (nbytes <= 0) return 0;
  if (const Byte* direct = src.direct(0, nbytes)) {
    timed_pwrite(ctx, abs_lo, ConstByteSpan(direct, to_size(nbytes)));
  } else if (zerocopy_dense_write(ctx, abs_lo, nbytes, src)) {
    // stats counted inside
  } else {
    if (ctx.opts.zerocopy == Zerocopy::Auto)
      ctx.stats.staged_fallback_windows += 1;
    ByteVec packbuf(to_size(std::min(ctx.opts.pack_buffer_size, nbytes)));
    Off done = 0;
    while (done < nbytes) {
      const Off n = std::min<Off>(to_off(packbuf.size()), nbytes - done);
      {
        Phase copy(ctx.stats.copy_s);
        src.to_stream(packbuf.data(), done, n);
      }
      timed_pwrite(ctx, abs_lo + done,
                   ConstByteSpan(packbuf.data(), to_size(n)));
      done += n;
    }
  }
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

Off dense_read(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& dst) {
  if (nbytes <= 0) return 0;
  if (Byte* direct = dst.direct_mut(0, nbytes)) {
    timed_pread_zero_fill(ctx, abs_lo, ByteSpan(direct, to_size(nbytes)));
  } else if (zerocopy_dense_read(ctx, abs_lo, nbytes, dst)) {
    // stats counted inside
  } else {
    if (ctx.opts.zerocopy == Zerocopy::Auto)
      ctx.stats.staged_fallback_windows += 1;
    ByteVec packbuf(to_size(std::min(ctx.opts.pack_buffer_size, nbytes)));
    Off done = 0;
    while (done < nbytes) {
      const Off n = std::min<Off>(to_off(packbuf.size()), nbytes - done);
      timed_pread_zero_fill(ctx, abs_lo + done,
                      ByteSpan(packbuf.data(), to_size(n)));
      {
        Phase copy(ctx.stats.copy_s);
        dst.from_stream(packbuf.data(), done, n);
      }
      done += n;
    }
  }
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

}  // namespace llio::mpiio
