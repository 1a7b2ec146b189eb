#include "mpiio/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/range_lock.hpp"

namespace llio::mpiio {

namespace {

// Worker-side file jobs return what they did as an IoOpStats through the
// job's future; the compute thread folds it in (the shared IoOpStats is
// never touched from a worker).
IoOpStats read_job(pfs::FileBackend& file, Off lo, ByteSpan buf, Off win,
                   bool rmw) {
  IoOpStats s;
  Off got = 0;
  {
    Phase io(s.file_s, "preread");
    io.arg("win", win);
    io.arg("bytes", to_off(buf.size()));
    got = file.pread(lo, buf);
  }
  if (to_size(got) < buf.size())
    std::memset(buf.data() + got, 0, buf.size() - to_size(got));
  // A read ahead of a write-back is the RMW pre-read the mergeview
  // analysis tries to elide; a read-op window load is plain I/O.
  if (rmw) s.preread_s = s.file_s;
  s.file_read_bytes = got;
  s.file_read_ops = 1;
  return s;
}

IoOpStats write_job(pfs::FileBackend& file, Off lo, ConstByteSpan buf,
                    Off win) {
  IoOpStats s;
  {
    Phase io(s.file_s, "pwrite");
    io.arg("win", win);
    io.arg("bytes", to_off(buf.size()));
    file.pwrite(lo, buf);
  }
  s.file_write_bytes = to_off(buf.size());
  s.file_write_ops = 1;
  return s;
}

void run_serial(SieveContext& ctx, Off buffer_bytes, const WindowSource& next,
                const WindowFill& fill) {
  ByteVec buf(to_size(buffer_bytes));
  WindowPlan plan;
  Off index = 0;
  while (next(plan)) {
    plan.index = index++;
    obs::Span span("window");
    span.arg("win", plan.index);
    const Off win = plan.hi - plan.lo;
    span.arg("bytes", win);
    if (plan.writeback && !plan.preread) ++ctx.stats.preread_skipped_windows;
    std::optional<pfs::ScopedRangeLock> lock;
    if (plan.lock) lock.emplace(ctx.locks, plan.lo, plan.hi);
    if (plan.preread) {
      // Same span vocabulary as the pipelined jobs, here on the compute
      // thread (tid 0): the explainer excludes these from worker overlap,
      // the critical-path pass counts them as the window's I/O exposure.
      double preread_s = 0;
      {
        Phase io(preread_s, "preread");
        io.arg("win", plan.index);
        io.arg("bytes", win);
        timed_pread_zero_fill(ctx, plan.lo,
                              ByteSpan(buf.data(), to_size(win)));
      }
      if (plan.writeback) ctx.stats.preread_s += preread_s;
    }
    fill(plan, ByteSpan(buf.data(), to_size(win)));
    if (plan.writeback) {
      obs::Span io_span("pwrite");
      io_span.arg("win", plan.index);
      io_span.arg("bytes", win);
      timed_pwrite(ctx, plan.lo, ConstByteSpan(buf.data(), to_size(win)));
    }
  }
}

void run_pipelined(SieveContext& ctx, int depth, Off buffer_bytes,
                   const WindowSource& next, const WindowFill& fill) {
  struct Flight {
    WindowPlan plan;
    std::size_t buf = 0;
    bool locked = false;
    std::future<IoOpStats> io;  // pending pre-read or write-back
  };

  // I/O jobs run on the process-wide worker pool (shared with parallel
  // pack slices); the reservation guarantees `depth` concurrent workers
  // exist for the duration of this run.  Tracing is per-job: the track
  // guard routes the job's spans onto the owning rank's worker tracks
  // (tid 1.., below the compute row) and its destructor flushes the
  // thread-local event buffer, which a persistent pool thread would
  // otherwise hold back from snapshots.
  WorkerPool& pool = WorkerPool::shared();
  const WorkerPool::Reservation reserved = pool.reserve(depth);
  const int owner = obs::current_pid();
  auto submit_io = [&pool, owner](int tid,
                                  std::function<IoOpStats()> fn) {
    return pool.submit([owner, tid, fn = std::move(fn)] {
      std::optional<obs::ThreadTrackGuard> track;
      if (owner >= 0 && obs::trace_enabled())
        track.emplace(owner, tid, "", "io worker " + std::to_string(tid));
      return fn();
    });
  };
  std::vector<ByteVec> bufs(to_size(depth));
  for (ByteVec& b : bufs) b.resize(to_size(buffer_bytes));
  std::vector<std::size_t> free_bufs;
  for (std::size_t i = bufs.size(); i-- > 0;) free_bufs.push_back(i);

  std::deque<Flight> pending;  // produced, possibly pre-reading, not filled
  std::deque<Flight> writing;  // write-back in flight
  IoOpStats worker;            // everything the workers did
  double wait_s = 0;           // compute-thread time blocked on a future
  Off index = 0;               // sequential window number (for tracing)
  bool more = true;
  std::exception_ptr err;

  auto settle = [&](Flight& fl) {
    // Wait for the window's outstanding I/O (if any) and fold its stats
    // in; the wait doubles as the happens-before edge that hands the
    // buffer back to the compute thread.
    if (!fl.io.valid()) return;
    Phase wait(wait_s, "io_wait");
    wait.arg("win", fl.plan.index);
    try {
      worker += fl.io.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  };

  auto retire = [&](Flight& fl) {
    settle(fl);
    if (fl.locked) ctx.locks.unlock(fl.plan.lo, fl.plan.hi);
    free_bufs.push_back(fl.buf);
  };

  while (true) {
    // Launch as many windows as there are free buffers.
    while (more && !err && !free_bufs.empty()) {
      WindowPlan plan;
      try {
        if (!next(plan)) {
          more = false;
          break;
        }
      } catch (...) {
        err = std::current_exception();
        break;
      }
      plan.index = index++;
      if (plan.writeback && !plan.preread)
        ++ctx.stats.preread_skipped_windows;
      Flight fl;
      fl.plan = plan;
      fl.buf = free_bufs.back();
      free_bufs.pop_back();
      if (plan.lock) {
        ctx.locks.lock(plan.lo, plan.hi);
        fl.locked = true;
      }
      if (plan.preread) {
        pfs::FileBackend& file = ctx.file;
        const ByteSpan span(bufs[fl.buf].data(), to_size(plan.hi - plan.lo));
        const Off lo = plan.lo;
        const Off win = plan.index;
        const bool rmw = plan.writeback;
        fl.io = submit_io(1 + static_cast<int>(fl.buf), [&file, lo, span,
                                                         win, rmw] {
          return read_job(file, lo, span, win, rmw);
        });
      }
      pending.push_back(std::move(fl));
    }

    if (pending.empty()) {
      if (writing.empty()) break;
      Flight fl = std::move(writing.front());
      writing.pop_front();
      retire(fl);
      continue;
    }

    // Fill the oldest window (waiting out its pre-read first).
    Flight fl = std::move(pending.front());
    pending.pop_front();
    obs::Span win_span("window");
    win_span.arg("win", fl.plan.index);
    win_span.arg("bytes", fl.plan.hi - fl.plan.lo);
    settle(fl);
    if (!err) {
      try {
        fill(fl.plan,
             ByteSpan(bufs[fl.buf].data(), to_size(fl.plan.hi - fl.plan.lo)));
      } catch (...) {
        err = std::current_exception();
      }
    }
    if (!err && fl.plan.writeback) {
      pfs::FileBackend& file = ctx.file;
      const ConstByteSpan span(bufs[fl.buf].data(),
                               to_size(fl.plan.hi - fl.plan.lo));
      const Off lo = fl.plan.lo;
      const Off win = fl.plan.index;
      fl.io = submit_io(1 + static_cast<int>(fl.buf), [&file, lo, span, win] {
        return write_job(file, lo, span, win);
      });
      writing.push_back(std::move(fl));
    } else {
      if (fl.locked) ctx.locks.unlock(fl.plan.lo, fl.plan.hi);
      free_bufs.push_back(fl.buf);
    }

    // Recycle buffers from any writes that already completed.
    while (!writing.empty() &&
           writing.front().io.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Flight done = std::move(writing.front());
      writing.pop_front();
      retire(done);
    }
    if (err) break;
  }

  // Drain everything still in flight (normal exit and error exit alike):
  // workers must stop touching the buffers before we return/throw.
  while (!pending.empty()) {
    Flight fl = std::move(pending.front());
    pending.pop_front();
    retire(fl);
  }
  while (!writing.empty()) {
    Flight fl = std::move(writing.front());
    writing.pop_front();
    retire(fl);
  }

  ctx.stats += worker;
  ctx.stats.io_wait_s += wait_s;
  ctx.stats.overlap_s += std::max(0.0, worker.file_s - wait_s);

  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::instance();
    reg.histogram("pipeline.io_wait_us")
        .record(static_cast<long long>(wait_s * 1e6));
    reg.counter("pipeline.windows").add(static_cast<std::uint64_t>(index));
    reg.counter("pipeline.runs").add(1);
  }

  if (err) std::rethrow_exception(err);
}

}  // namespace

void run_window_pipeline(SieveContext& ctx, int depth, Off buffer_bytes,
                         const WindowSource& next, const WindowFill& fill) {
  if (depth <= 0) {
    run_serial(ctx, buffer_bytes, next, fill);
  } else {
    run_pipelined(ctx, std::min(depth, 8), buffer_bytes, next, fill);
  }
}

}  // namespace llio::mpiio
