// perfbench: one workload of the repository benchmark, in its own process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--worlds N] [--tiny] [--corrupt-read K] [--source-id ID]
//
// Each workload is the paper's Fig. 4 nc-nc pattern (rank r owns blocks of
// Sblock bytes at stride P*Sblock, displacement r*Sblock; the memory
// buffer is strided at twice the block size) on P = 2 rank threads, run as
// a closed loop: a write phase, then a read-back phase.  A run measures
// ten such worlds one after another, each with its own backend, threads
// and buffers.  Op sizes and op counts are fixed per workload (the round
// count scales with --seconds by a constant, never by a timed
// calibration).
//
// Correctness: every user buffer holds seed-derived words keyed by file
// offset, so the expected file image is known without running either
// engine.  Every read is compared word for word, including the untouched
// holes of the strided memory buffer, and after the write phase the whole
// file image is compared with that reference.  A mismatch or an exception
// counts as a failed op and makes the process exit non-zero.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same worlds
// untraced with half the rounds, then traced, and prints the per-layer
// metrics, gathered from outside the library: spans around every File
// call, a FileBackend decorator around the storage (and, for psrv, around
// the client handle and each server's shard), File::last_stats(),
// Comm::stats() and the psrv pool's counters.  The spans are written once,
// at exit, as Chrome-trace JSON, to .bench_build/traces/.
//
// The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the line before it is the host stamp.  Per-world and per-round
// rates go to stderr.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "dtype/datatype.hpp"
#include "dtype/flatten.hpp"
#include "fotf/pack.hpp"
#include "mpiio/file.hpp"
#include "mpiio/info.hpp"
#include "pfs/file_backend.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/view_io.hpp"
#include "psrv/server_file.hpp"
#include "psrv/server_pool.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace llio;
using Clock = std::chrono::steady_clock;

constexpr int kProcs = 2;
/// Measured worlds per run (one with --tiny).  They may be split over
/// several processes with --worlds; the rounds per world stay the same.
constexpr int kWorlds = 10;
constexpr std::uint64_t kHole = 0x5a5a5a5a5a5a5a5aULL;
constexpr double kMiB = 1024.0 * 1024.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workloads -------------------------------------------------------------

enum class Store { Mem, PsrvView };

struct Workload {
  const char* name;
  bool collective;
  mpiio::Method method;
  Store store;
  Off sblock;
  Off nblock;
  Off op_bytes;       ///< user bytes per rank per op
  Off slots;          ///< file image = slots * kProcs * op_bytes
  int ops_per_round;  ///< ops whose summed time makes one rate sample
  /// Write and read rounds per 10 measured seconds: constants sized once on
  /// the reference host so each phase takes about half the time.  Op
  /// counts never depend on a timing taken in the run.
  int write_rounds_per_10s;
  int read_rounds_per_10s;
  mpiio::Info hints;
};

std::vector<Workload> workloads() {
  // Collective pair: 56 slots of 8 MiB = 448 MiB of file image, over 4x
  // a 105 MiB last-level cache, so the file side is never cache-resident.
  const Workload coll{"coll_listless", true, mpiio::Method::Listless,
                      Store::Mem, 8, 1024, 4 << 20, 56, 8, 30, 140, {}};
  Workload coll_list = coll;
  coll_list.name = "coll_list";
  coll_list.method = mpiio::Method::ListBased;
  // Two ops per round, so each world still gets three write rounds to take
  // a median over.
  coll_list.ops_per_round = 2;
  coll_list.write_rounds_per_10s = 30;
  coll_list.read_rounds_per_10s = 54;
  const Workload psrv{"psrv_view", false, mpiio::Method::Listless,
                      Store::PsrvView, 8, 256, 2 << 20, 16, 4, 55, 55,
                      {{"llio_psrv_request", "view"},
                       {"llio_psrv_servers", "2"}}};
  return {coll, coll_list, psrv};
}

// ---- expected data -----------------------------------------------------------

/// The word stored at file word index `w` by generation `gen`: a
/// (seed, gen) key, mixed by splitmix64 (hoisted out of loops), XORed with
/// an odd multiple of w, so no two words of one generation are equal.
inline std::uint64_t word_at(std::uint64_t seed, std::uint64_t gen,
                             std::uint64_t w) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    gen * 0xbf58476d1ce4e5b9ULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) ^ (w * 0x9e3779b97f4a7c15ULL);
}

/// Engine-independent geometry of the nc-nc pattern: where each block of
/// a rank's op lands in the file and in its strided memory buffer.
struct Geometry {
  Off sblock, nblock, op_bytes, slots;
  Off per_instance() const { return sblock * nblock; }
  Off instances() const { return op_bytes / per_instance(); }
  Off file_extent() const { return per_instance() * kProcs; }
  Off mem_extent() const { return 2 * per_instance(); }
  Off slot_bytes() const { return op_bytes * kProcs; }
  Off image_bytes() const { return slot_bytes() * slots; }
  Off mem_bytes() const { return instances() * mem_extent(); }

  /// Calls f(file_off, mem_off) for every block of rank r's op on `slot`.
  template <class F>
  void for_each_block(int r, Off slot, F&& f) const {
    const Off base = slot * slot_bytes();
    for (Off t = 0; t < instances(); ++t)
      for (Off j = 0; j < nblock; ++j)
        f(base + t * file_extent() + j * kProcs * sblock + r * sblock,
          t * mem_extent() + j * 2 * sblock);
  }
};

void fill_user(const Geometry& g, std::uint64_t seed, std::uint64_t gen,
               int r, Off slot, std::uint64_t* mem) {
  const Off wpb = g.sblock / 8;
  g.for_each_block(r, slot, [&](Off f, Off m) {
    const std::uint64_t fw = static_cast<std::uint64_t>(f / 8);
    std::uint64_t* p = mem + m / 8;
    for (Off i = 0; i < wpb; ++i)
      p[i] = word_at(seed, gen, fw + static_cast<std::uint64_t>(i));
  });
}

/// Generation written by write op k: each pass over the slots is new data.
std::uint64_t gen_of_write(int k, Off slots) {
  return 1 + static_cast<std::uint64_t>(k / slots);
}

/// Words of rank r's read buffer that differ from the expected data, or
/// from the hole pattern where the memtype has gaps.  Folds the XOR of the
/// data words read into the running digest.
Off verify_user(const Geometry& g, std::uint64_t seed, std::uint64_t gen,
                int r, Off slot, const std::uint64_t* mem,
                std::uint64_t* digest) {
  const Off wpb = g.sblock / 8;
  Off bad = 0;
  std::uint64_t x = 0;
  g.for_each_block(r, slot, [&](Off f, Off m) {
    const std::uint64_t fw = static_cast<std::uint64_t>(f / 8);
    const std::uint64_t* p = mem + m / 8;
    for (Off i = 0; i < wpb; ++i) {
      bad += p[i] != word_at(seed, gen, fw + static_cast<std::uint64_t>(i));
      bad += p[wpb + i] != kHole;
      x ^= p[i];
    }
  });
  *digest = word_at(*digest, x, 0);
  return bad;
}

dt::Type filetype(const Geometry& g, int r) {
  const dt::Type v =
      dt::hvector(g.nblock, g.sblock, Off{kProcs} * g.sblock, dt::byte());
  const Off bls[] = {1};
  const Off ds[] = {Off{r} * g.sblock};
  return dt::resized(dt::hindexed(bls, ds, v), 0, g.file_extent());
}

dt::Type memtype(const Geometry& g) {
  return dt::resized(dt::hvector(g.nblock, g.sblock, 2 * g.sblock, dt::byte()),
                     0, g.mem_extent());
}

// ---- spans -------------------------------------------------------------------

struct SpanRec {
  const char* name;
  std::uint64_t id, parent;
  std::int64_t op;
  int tid;
  std::int64_t t0, t1;
};

/// In-memory span store: one buffer per thread, registered once, written
/// out at exit.  Recording is on only inside measured phases.
class Spans {
 public:
  static Spans& get() {
    static Spans s;
    return s;
  }
  std::atomic<bool> on{false};

  /// This thread's buffer; it outlives the thread, so spans of finished
  /// rank and server threads are still written out.
  struct ThreadBuf {
    std::shared_ptr<std::vector<SpanRec>> spans;
    int tid = 0;
  };
  ThreadBuf& local() {
    thread_local ThreadBuf tb;
    if (!tb.spans) {
      tb.spans = std::make_shared<std::vector<SpanRec>>();
      std::lock_guard<std::mutex> lk(mu_);
      bufs_.push_back(tb.spans);
      tb.tid = static_cast<int>(bufs_.size());
    }
    return tb;
  }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  std::vector<SpanRec> all() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SpanRec> out;
    for (const auto& b : bufs_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<std::vector<SpanRec>>> bufs_;
  std::atomic<std::uint64_t> ids_{0};
};

thread_local std::uint64_t t_open_span = 0;  // innermost open span id
thread_local std::int64_t t_op = -1;         // op id of this rank thread

/// RAII span; free when recording is off.
class Span {
 public:
  explicit Span(const char* name) {
    Spans& s = Spans::get();
    if (!s.on.load(std::memory_order_relaxed)) return;
    name_ = name;
    id_ = s.next_id();
    parent_ = t_open_span;
    t_open_span = id_;
    t0_ = now_ns();
  }
  ~Span() {
    if (name_ == nullptr) return;
    const std::int64_t t1 = now_ns();
    t_open_span = parent_;
    Spans::ThreadBuf& tb = Spans::get().local();
    tb.spans->push_back({name_, id_, parent_, t_op, tb.tid, t0_, t1});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t id_ = 0, parent_ = 0;
  std::int64_t t0_ = 0;
};

// ---- timing decorator ------------------------------------------------------

struct LayerCounters {
  std::atomic<std::uint64_t> calls{0}, busy_ns{0}, rbytes{0}, wbytes{0};
  void add(std::int64_t t0, Off rb, Off wb) {
    calls.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                      std::memory_order_relaxed);
    rbytes.fetch_add(static_cast<std::uint64_t>(rb), std::memory_order_relaxed);
    wbytes.fetch_add(static_cast<std::uint64_t>(wb), std::memory_order_relaxed);
  }
  struct Snap {
    double calls = 0, busy_ms = 0, rbytes = 0, wbytes = 0;
    Snap operator-(const Snap& o) const {
      return {calls - o.calls, busy_ms - o.busy_ms, rbytes - o.rbytes,
              wbytes - o.wbytes};
    }
    Snap& operator+=(const Snap& o) {
      calls += o.calls;
      busy_ms += o.busy_ms;
      rbytes += o.rbytes;
      wbytes += o.wbytes;
      return *this;
    }
  };
  Snap snap() const {
    return {static_cast<double>(calls.load()), busy_ns.load() / 1e6,
            static_cast<double>(rbytes.load()),
            static_cast<double>(wbytes.load())};
  }
};

Off iov_bytes(std::span<const pfs::IoVec> v) {
  Off n = 0;
  for (const auto& s : v) n += to_off(s.buf.size());
  return n;
}
Off iov_bytes(std::span<const pfs::ConstIoVec> v) {
  Off n = 0;
  for (const auto& s : v) n += to_off(s.buf.size());
  return n;
}

/// Times every backend call from outside and records it as a span of its
/// layer.  Forwards view_io, async_info and set_iov_batch_max, so the
/// traced run takes the same library path as the timed one.
class TimedFile final : public pfs::FileBackend, public pfs::ViewIo {
 public:
  TimedFile(pfs::FilePtr inner, const char* read_name, const char* write_name,
            LayerCounters* c)
      : inner_(std::move(inner)), rname_(read_name), wname_(write_name),
        c_(c) {}

  Off size() const override { return inner_->size(); }
  void resize(Off n) override { inner_->resize(n); }
  void sync() override { inner_->sync(); }
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    inner_->set_iov_batch_max(n);
  }
  std::optional<pfs::AsyncInfo> async_info() const override {
    return inner_->async_info();
  }
  pfs::ViewIo* view_io() override {
    return inner_->view_io() != nullptr ? this : nullptr;
  }
  Off view_write(const dt::Type& ft, Off disp, Off lo,
                 ConstByteSpan data) override {
    Span s(wname_);
    const std::int64_t t0 = now_ns();
    const Off n = inner_->view_io()->view_write(ft, disp, lo, data);
    c_->add(t0, 0, to_off(data.size()));
    return n;
  }
  Off view_read(const dt::Type& ft, Off disp, Off lo, ByteSpan out) override {
    Span s(rname_);
    const std::int64_t t0 = now_ns();
    const Off n = inner_->view_io()->view_read(ft, disp, lo, out);
    c_->add(t0, to_off(out.size()), 0);
    return n;
  }

 protected:
  Off do_pread(Off off, ByteSpan out) override {
    Span s(rname_);
    const std::int64_t t0 = now_ns();
    const Off n = inner_->pread(off, out);
    c_->add(t0, to_off(out.size()), 0);
    return n;
  }
  void do_pwrite(Off off, ConstByteSpan data) override {
    Span s(wname_);
    const std::int64_t t0 = now_ns();
    inner_->pwrite(off, data);
    c_->add(t0, 0, to_off(data.size()));
  }
  Off do_preadv(std::span<const pfs::IoVec> iov) override {
    Span s(rname_);
    const std::int64_t t0 = now_ns();
    const Off n = inner_->preadv(iov);
    c_->add(t0, iov_bytes(iov), 0);
    return n;
  }
  void do_pwritev(std::span<const pfs::ConstIoVec> iov) override {
    Span s(wname_);
    const std::int64_t t0 = now_ns();
    inner_->pwritev(iov);
    c_->add(t0, 0, iov_bytes(iov));
  }

 private:
  pfs::FilePtr inner_;
  const char* rname_;
  const char* wname_;
  LayerCounters* c_;
};

// ---- one world: set-up, write phase, image check, read phase ---------------

struct Sums {  // summed over ranks and ops
  double ops = 0;
  mpiio::IoOpStats st;
  double msgs = 0, data_bytes = 0, meta_bytes = 0;
  Sums& operator+=(const Sums& o) {
    ops += o.ops;
    st += o.st;
    msgs += o.msgs;
    data_bytes += o.data_bytes;
    meta_bytes += o.meta_bytes;
    return *this;
  }
};

struct PhaseResult {
  std::vector<double> op_s;        ///< per op: max over ranks
  std::vector<double> round_mbps;  ///< per round B_pp
  std::vector<double> world_mbps;  ///< per world: median of its rounds

  /// The phase's rate: the mean over worlds of each world's median round.
  /// The median drops rounds hit by a passing stall; the mean over worlds
  /// weighs the placement modes a world draws (see run_worlds) by how
  /// often they occur, where a pooled median would jump between them.
  double mbps() const {
    return world_mbps.empty()
               ? 0.0
               : std::accumulate(world_mbps.begin(), world_mbps.end(), 0.0) /
                     static_cast<double>(world_mbps.size());
  }
};

/// One world's results, or several worlds' pooled: samples concatenated,
/// counters (deltas over the measured phases) summed.
struct WorldResult {
  std::vector<double> setup_s;
  PhaseResult write, read;
  Sums sums;
  Off attempted = 0, failed = 0;
  LayerCounters::Snap pfs, psrv;
  psrv::ServerStats srv;  ///< only the view and timing fields are kept
  sim::CommStats wire;
  int threads = 0;
  std::uint64_t digest = 0;  ///< fold of every data word read back
  int write_ops = 0, read_ops = 0;  ///< per rank

  WorldResult& operator+=(const WorldResult& o) {
    setup_s.insert(setup_s.end(), o.setup_s.begin(), o.setup_s.end());
    for (auto [to, from] : {std::pair{&write, &o.write}, {&read, &o.read}}) {
      to->op_s.insert(to->op_s.end(), from->op_s.begin(), from->op_s.end());
      to->round_mbps.insert(to->round_mbps.end(), from->round_mbps.begin(),
                            from->round_mbps.end());
      to->world_mbps.insert(to->world_mbps.end(), from->world_mbps.begin(),
                            from->world_mbps.end());
    }
    sums += o.sums;
    attempted += o.attempted;
    failed += o.failed;
    pfs += o.pfs;
    psrv += o.psrv;
    srv += o.srv;
    wire += o.wire;
    threads = std::max(threads, o.threads);
    digest = word_at(digest, o.digest, 1);
    write_ops += o.write_ops;
    read_ops += o.read_ops;
    return *this;
  }
};

struct RunConfig {
  const Workload* w;
  Geometry g;
  std::uint64_t seed;
  int write_rounds = 0;  ///< per world
  int read_rounds = 0;
  bool traced = false;
  Off corrupt_read = -1;  ///< test hook: flip a word of this read op
  std::int64_t first_op = 0;  ///< span op id of the world's first timed op
};

/// Threads of the process besides the main thread, which only waits for
/// the world to finish: rank threads, I/O workers and psrv servers.
int count_threads() {
  int n = -1;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return n;
}

struct Backends {
  pfs::FilePtr file;  ///< what File::open sees
  std::shared_ptr<psrv::ServerPool> pool;
};

LayerCounters g_pfs, g_psrv;

Backends make_backend(const RunConfig& rc) {
  const Workload& w = *rc.w;
  const mpiio::Options o = mpiio::apply_info(w.hints, mpiio::Options{});
  Backends b;
  switch (w.store) {
    case Store::Mem:
      b.file = pfs::MemFile::create(rc.g.image_bytes());
      break;
    case Store::PsrvView: {
      psrv::PoolConfig pc;
      pc.nservers = o.psrv_servers;
      pc.capacity = rc.g.image_bytes();
      if (rc.traced)
        pc.make_shard = [](int) -> pfs::FilePtr {
          return std::make_shared<TimedFile>(pfs::MemFile::create(),
                                             "pfs.preadv", "pfs.pwritev",
                                             &g_pfs);
        };
      b.pool = psrv::ServerPool::create(pc);
      b.file = psrv::ServerFile::create(
          b.pool, psrv::request_class_from_name(o.psrv_request));
      break;
    }
  }
  if (rc.traced) {
    const bool psrv = w.store == Store::PsrvView;
    b.file = std::make_shared<TimedFile>(
        b.file, psrv ? "psrv.read" : "pfs.preadv",
        psrv ? "psrv.write" : "pfs.pwritev", psrv ? &g_psrv : &g_pfs);
  }
  return b;
}

/// Write generation 0 of the whole image through the backend.
void populate(const RunConfig& rc, pfs::FileBackend& f) {
  const Off chunk = 4 << 20;
  std::vector<std::uint64_t> buf(to_size(chunk / 8));
  for (Off at = 0; at < rc.g.image_bytes(); at += chunk) {
    const Off n = std::min(chunk, rc.g.image_bytes() - at);
    for (Off i = 0; i < n / 8; ++i)
      buf[to_size(i)] = word_at(rc.seed, 0, static_cast<std::uint64_t>(at / 8 + i));
    f.pwrite(at, ConstByteSpan(reinterpret_cast<const Byte*>(buf.data()),
                               to_size(n)));
  }
}

/// Words of the image chunks {r, r+P, ...} that differ from the reference.
Off check_image(const RunConfig& rc, pfs::FileBackend& f, int r,
                const std::vector<std::uint64_t>& gen) {
  const Off chunk = rc.g.slot_bytes();
  std::vector<std::uint64_t> buf(to_size(chunk / 8));
  Off bad = 0;
  for (Off s = r; s < rc.g.slots; s += kProcs) {
    f.pread(s * chunk, ByteSpan(reinterpret_cast<Byte*>(buf.data()),
                                to_size(chunk)));
    const std::uint64_t w0 = static_cast<std::uint64_t>(s * chunk / 8);
    for (Off i = 0; i < chunk / 8; ++i)
      bad += buf[to_size(i)] !=
             word_at(rc.seed, gen[to_size(s)], w0 + static_cast<std::uint64_t>(i));
  }
  return bad;
}

WorldResult run_world(const RunConfig& rc) {
  const Workload& w = *rc.w;
  const Geometry& g = rc.g;
  WorldResult res;
  const int nwrite = rc.write_rounds * w.ops_per_round;
  const int nread = rc.read_rounds * w.ops_per_round;
  std::vector<std::vector<double>> wdur(kProcs,
                                        std::vector<double>(to_size(nwrite)));
  std::vector<std::vector<double>> rdur(kProcs,
                                        std::vector<double>(to_size(nread)));
  std::vector<Sums> sums(kProcs);
  std::vector<Off> bad_ops(kProcs, 0);
  std::vector<std::uint64_t> digests(kProcs, 0);
  std::atomic<Off> image_bad{0};
  std::atomic<std::int64_t> setup_end{0};

  // Slot order of the read phase: a seed-driven permutation.
  std::vector<Off> order(to_size(g.slots));
  std::iota(order.begin(), order.end(), Off{0});
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[word_at(rc.seed, 0xfeed, i) % i]);
  // Generation each slot holds after the write phase.
  std::vector<std::uint64_t> gen(to_size(g.slots), 0);
  for (int k = 0; k < nwrite; ++k)
    gen[to_size(k % g.slots)] = gen_of_write(k, g.slots);

  const std::int64_t t0 = now_ns();
  Backends b = make_backend(rc);
  populate(rc, *b.file);

  sim::Runtime::run(kProcs, [&](sim::Comm& comm) {
    const int r = comm.rank();
    mpiio::Options o;
    o.method = w.method;
    o = mpiio::apply_info(w.hints, o);
    mpiio::File f = mpiio::File::open(comm, b.file, o);
    f.set_view(0, dt::byte(), filetype(g, r));
    const dt::Type mt = memtype(g);
    std::vector<std::uint64_t> mem(to_size(g.mem_bytes() / 8), kHole);
    const Off count = g.instances();

    auto op = [&](bool write, Off slot) {
      Span s(w.collective ? (write ? "mpiio.write_at_all" : "mpiio.read_at_all")
                          : (write ? "mpiio.write_at" : "mpiio.read_at"));
      const Off at = slot * g.op_bytes;
      if (write) {
        if (w.collective) f.write_at_all(at, mem.data(), count, mt);
        else f.write_at(at, mem.data(), count, mt);
      } else {
        if (w.collective) f.read_at_all(at, mem.data(), count, mt);
        else f.read_at(at, mem.data(), count, mt);
      }
    };

    // Cold write and read of slot 0 (generation 0, the populated data).
    fill_user(g, rc.seed, 0, r, 0, mem.data());
    op(true, 0);
    std::fill(mem.begin(), mem.end(), kHole);
    op(false, 0);
    std::uint64_t digest = 0;
    bad_ops[to_size(r)] +=
        verify_user(g, rc.seed, 0, r, 0, mem.data(), &digest) != 0;
    comm.barrier();
    if (r == 0) setup_end.store(now_ns());

    Sums& sm = sums[to_size(r)];
    auto timed = [&](bool write, int k, Off slot, std::vector<double>& dur) {
      comm.barrier();
      t_op = rc.first_op + k + (write ? 0 : nwrite);
      const sim::CommStats c0 = comm.stats();
      const std::int64_t a = now_ns();
      op(write, slot);
      dur[to_size(k)] = static_cast<double>(now_ns() - a) / 1e9;
      const sim::CommStats c1 = comm.stats();
      t_op = -1;
      sm.ops += 1;
      sm.st += f.last_stats();
      sm.msgs += static_cast<double>(c1.msgs_sent - c0.msgs_sent);
      sm.data_bytes += static_cast<double>(c1.data_bytes_sent - c0.data_bytes_sent);
      sm.meta_bytes += static_cast<double>(c1.meta_bytes_sent - c0.meta_bytes_sent);
    };

    comm.barrier();
    psrv::ServerStats srv0;
    LayerCounters::Snap pfs0, psrv0;
    if (r == 0) {
      pfs0 = g_pfs.snap();
      psrv0 = g_psrv.snap();
      if (b.pool) {
        b.pool->reset_wire_stats();
        srv0 = b.pool->total_server_stats();
      }
      Spans::get().on = rc.traced;
    }
    for (int k = 0; k < nwrite; ++k) {
      const Off slot = k % g.slots;
      fill_user(g, rc.seed, gen_of_write(k, g.slots), r, slot, mem.data());
      timed(true, k, slot, wdur[to_size(r)]);
    }
    for (int k = 0; k < nread; ++k) {
      const Off slot = order[to_size(k % g.slots)];
      std::fill(mem.begin(), mem.end(), kHole);
      timed(false, k, slot, rdur[to_size(r)]);
      if (r == 0 && k == rc.corrupt_read) mem[mem.size() / 2] ^= 1;
      bad_ops[to_size(r)] +=
          verify_user(g, rc.seed, gen[to_size(slot)], r, slot, mem.data(),
                      &digest) != 0;
    }
    comm.barrier();
    if (r == 0) {
      Spans::get().on = false;
      res.pfs = g_pfs.snap() - pfs0;
      res.psrv = g_psrv.snap() - psrv0;
      if (b.pool) {
        res.wire = b.pool->wire_stats();
        const psrv::ServerStats srv1 = b.pool->total_server_stats();
        res.srv.view_ops = srv1.view_ops - srv0.view_ops;
        res.srv.view_misses = srv1.view_misses - srv0.view_misses;
        res.srv.view_segments = srv1.view_segments - srv0.view_segments;
        res.srv.service_s = srv1.service_s - srv0.service_s;
        res.srv.queue_wait_s = srv1.queue_wait_s - srv0.queue_wait_s;
      }
      res.threads = count_threads();
    }
    comm.barrier();  // the snapshots above must not see the image check
    // The write phase's image, against the engine-independent reference.
    image_bad += check_image(rc, *b.file, r, gen);
    digests[to_size(r)] = digest;
  });

  res.setup_s = {static_cast<double>(setup_end.load() - t0) / 1e9};
  // The cold write and read of set-up, the measured ops, the image check.
  res.attempted = 2 * kProcs + Off{nwrite + nread} * kProcs + 1;
  res.failed = image_bad.load() != 0;
  for (int r = 0; r < kProcs; ++r) {
    res.sums += sums[to_size(r)];
    res.failed += bad_ops[to_size(r)];
    res.digest ^= digests[to_size(r)];
  }
  res.write_ops = nwrite;
  res.read_ops = nread;
  auto reduce = [&](const std::vector<std::vector<double>>& d, int rounds,
                    PhaseResult& p) {
    for (int k = 0; k < rounds * w.ops_per_round; ++k) {
      double m = 0;
      for (int r = 0; r < kProcs; ++r) m = std::max(m, d[to_size(r)][to_size(k)]);
      p.op_s.push_back(m);
    }
    for (int i = 0; i < rounds; ++i) {
      double s = 0;
      for (int j = 0; j < w.ops_per_round; ++j)
        s += p.op_s[to_size(i * w.ops_per_round + j)];
      p.round_mbps.push_back(static_cast<double>(g.op_bytes) * w.ops_per_round /
                             kMiB / s);
    }
    p.world_mbps.push_back(median(p.round_mbps));
  };
  reduce(wdur, rc.write_rounds, res.write);
  reduce(rdur, rc.read_rounds, res.read);
  return res;
}

/// Runs `worlds` worlds of rc one after another, each with its own
/// backend, threads and buffers, and pools their results.  Rates differ
/// from world to world (by up to 1.5x on psrv_view) far more than from
/// round to round, presumably with thread and memory placement, so a run
/// samples several worlds.
WorldResult run_worlds(RunConfig rc, int worlds) {
  WorldResult all;
  for (int i = 0; i < worlds; ++i) {
    const WorldResult one = run_world(rc);
    std::fprintf(stderr, "world %d: write %.1f read %.1f MiB/s\n", i,
                 one.write.mbps(), one.read.mbps());
    all += one;
    rc.corrupt_read = -1;
    rc.first_op += Off{rc.write_rounds + rc.read_rounds} * rc.w->ops_per_round;
  }
  return all;
}

// ---- reduction and output ------------------------------------------------------

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// The highest of a few standard percentiles with at least ten samples
/// beyond it (the median when there are fewer than twenty samples).
double tail_pct(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> v;
  void add(const std::string& name, double value, const std::string& unit) {
    v.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Median seconds of `reps` timed calls of fn, each recorded as a span
/// with op id -2 when the run is traced.
double replay(const char* span, int reps, bool traced,
              const std::function<void()>& fn) {
  std::vector<double> t;
  Spans::get().on = traced;
  t_op = -2;
  for (int i = 0; i < reps; ++i) {
    Span s(span);
    const std::int64_t a = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - a) / 1e9);
  }
  t_op = -1;
  Spans::get().on = false;
  return median(t);
}

/// Self time (duration minus direct children) of the measured ops' spans,
/// summed per layer, in ms.  Server-thread spans (op -1) count too.
std::map<std::string, double> self_time_ms() {
  const std::vector<SpanRec> spans = Spans::get().all();
  std::map<std::uint64_t, double> child_ns;
  for (const auto& sp : spans)
    if (sp.parent != 0) child_ns[sp.parent] += static_cast<double>(sp.t1 - sp.t0);
  std::map<std::string, double> out;
  for (const auto& sp : spans)
    if (sp.op >= -1)
      out[std::string(sp.name, std::strcspn(sp.name, "."))] +=
          (static_cast<double>(sp.t1 - sp.t0) - child_ns[sp.id]) / 1e6;
  return out;
}

void per_layer(const RunConfig& rc, const WorldResult& u, const WorldResult& t,
               const std::map<std::string, double>& self_ms, Metrics& m) {
  const Geometry& g = rc.g;
  const Sums& s = t.sums;
  const double ops = std::max(1.0, s.ops);
  const double user = s.ops * static_cast<double>(g.op_bytes);
  const double wbytes = t.write_ops * kProcs * static_cast<double>(g.op_bytes);
  const double rbytes = t.read_ops * kProcs * static_cast<double>(g.op_bytes);
  const auto& st = s.st;
  auto per_op_ms = [&](double sec) { return sec * 1e3 / ops; };

  std::vector<double> wo = t.write.op_s, ro = t.read.op_s;
  std::sort(wo.begin(), wo.end());
  std::sort(ro.begin(), ro.end());
  const std::size_t samples = std::min(wo.size(), ro.size());
  const double tp = tail_pct(samples);
  m.add("mpiio.write_p50_ms", percentile(wo, 50) * 1e3, "ms");
  m.add("mpiio.read_p50_ms", percentile(ro, 50) * 1e3, "ms");
  m.add("mpiio.write_tail_ms", percentile(wo, tp) * 1e3, "ms");
  m.add("mpiio.read_tail_ms", percentile(ro, tp) * 1e3, "ms");
  m.add("mpiio.tail_pct", tp, "pct");
  m.add("mpiio.samples", static_cast<double>(samples), "count");
  m.add("mpiio.preread_ms_per_op", per_op_ms(st.preread_s), "ms");
  m.add("mpiio.preread_skipped_per_op",
        static_cast<double>(st.preread_skipped_windows) / ops, "count");
  m.add("mpiio.merge_ms_per_op", per_op_ms(st.merge_analysis_s), "ms");
  m.add("mpiio.other_ms_per_op",
        per_op_ms(st.total_s - st.list_build_s - st.copy_s - st.file_s -
                  st.exchange_s),
        "ms");

  m.add("mpiio.self_ms_per_op", self_ms.count("mpiio") ? self_ms.at("mpiio") / ops : 0,
        "ms");

  m.add("listio.build_ms_per_op", per_op_ms(st.list_build_s), "ms");
  m.add("listio.list_bytes_per_byte",
        ratio(static_cast<double>(st.list_bytes_sent), user), "ratio");
  m.add("listio.list_mem_mb", static_cast<double>(st.list_mem_bytes) / 1e6,
        "MB");

  const dt::Type ft = filetype(g, 0);
  const dt::Type mt = memtype(g);
  std::size_t entries = 0;
  const double flat_s = replay("dtype.flatten", 5, rc.traced, [&] {
    entries = dt::flatten(ft).tuples().size();
  });
  m.add("dtype.flatten_ms", flat_s * 1e3, "ms");
  m.add("dtype.olist_entries_per_op",
        static_cast<double>(entries) * static_cast<double>(g.instances()),
        "count");

  m.add("fotf.copy_ms_per_op", per_op_ms(st.copy_s), "ms");
  m.add("fotf.plan_hit_frac",
        ratio(static_cast<double>(st.plan_hits),
              static_cast<double>(st.plan_hits + st.plan_misses)),
        "ratio");
  std::vector<std::uint64_t> mem(to_size(g.mem_bytes() / 8), kHole);
  fill_user(g, rc.seed, 0, 0, 0, mem.data());
  ByteVec packed(to_size(g.op_bytes));
  const double pack_s = replay("fotf.pack", 5, rc.traced, [&] {
    fotf::ff_pack(mem.data(), g.instances(), mt, 0, packed.data(), g.op_bytes);
  });
  const double unpack_s = replay("fotf.unpack", 5, rc.traced, [&] {
    fotf::ff_unpack(packed.data(), g.op_bytes, mem.data(), g.instances(), mt, 0);
  });
  m.add("fotf.pack_gbps", ratio(static_cast<double>(g.op_bytes) / 1e9, pack_s),
        "GB/s");
  m.add("fotf.unpack_gbps",
        ratio(static_cast<double>(g.op_bytes) / 1e9, unpack_s), "GB/s");

  m.add("simmpi.exchange_ms_per_op", per_op_ms(st.exchange_s), "ms");
  m.add("simmpi.msgs_per_op", s.msgs / ops, "count");
  m.add("simmpi.data_bytes_per_byte", ratio(s.data_bytes, user), "ratio");
  m.add("simmpi.meta_bytes_per_byte", ratio(s.meta_bytes, user), "ratio");

  m.add("pfs.calls_per_op", t.pfs.calls / ops, "count");
  m.add("pfs.busy_ms_per_op", t.pfs.busy_ms / ops, "ms");
  m.add("pfs.write_amp", ratio(t.pfs.wbytes, wbytes), "ratio");
  m.add("pfs.read_amp", ratio(t.pfs.rbytes, rbytes), "ratio");
  m.add("pfs.async_ops_per_op", static_cast<double>(st.async_file_ops) / ops,
        "count");
  m.add("pfs.inflight_peak", static_cast<double>(st.async_inflight_peak),
        "count");

  m.add("psrv.wire_bytes_per_byte",
        ratio(static_cast<double>(t.wire.total_bytes()), user), "ratio");
  m.add("psrv.wire_msgs_per_op", static_cast<double>(t.wire.msgs_sent) / ops,
        "count");
  m.add("psrv.client_ms_per_op", t.psrv.busy_ms / ops, "ms");
  m.add("psrv.service_ms_per_op", per_op_ms(t.srv.service_s), "ms");
  m.add("psrv.queue_wait_ms_per_op", per_op_ms(t.srv.queue_wait_s), "ms");
  m.add("psrv.view_miss_frac",
        ratio(static_cast<double>(t.srv.view_misses),
              static_cast<double>(t.srv.view_ops)),
        "ratio");
  m.add("psrv.segments_per_op", static_cast<double>(t.srv.view_segments) / ops,
        "count");

  const double uw = u.write.mbps(), ur = u.read.mbps();
  const double tw = t.write.mbps(), tr = t.read.mbps();
  m.add("trace.overhead_frac", 1.0 - 0.5 * (ratio(tw, uw) + ratio(tr, ur)),
        "ratio");
  m.add("run.fail_frac",
        ratio(static_cast<double>(u.failed + t.failed),
              static_cast<double>(u.attempted + t.attempted)),
        "ratio");
  m.add("run.threads", static_cast<double>(std::max(u.threads, t.threads)),
        "count");
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string fs_name(const char* path) {
  struct statfs s {};
  if (statfs(path, &s) != 0) return "absent";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return std::to_string(s.f_type);
  }
}

std::string host_stamp(const std::string& source_id) {
  struct utsname u {};
  uname(&u);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"kernel\":" + json_str(u.release) +
         ",\"machine\":" + json_str(u.machine) +
         ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
         ",\"source\":" + json_str(source_id) +
         ",\"llc_bytes\":" + std::to_string(llc) +
         ",\"dev_shm_fs\":" + json_str(fs_name("/dev/shm")) + "}";
}

void write_trace(const std::string& path, const std::string& host,
                 const std::map<std::string, double>& self_ms, double ops) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write trace " + path);
  std::vector<SpanRec> spans = Spans::get().all();
  std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const auto& s : spans) base = std::min(base, s.t0);
  std::string self = "{";
  for (const auto& [layer, ms] : self_ms) {
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", ms / std::max(1.0, ops));
    if (self.size() > 1) self += ',';
    self += json_str(layer);
    self += ':';
    self += num;
  }
  self += "}";
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"host\":%s,"
               "\"self_ms_per_op\":%s},\"traceEvents\":[",
               host.c_str(), self.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%lld}}",
                 i ? "," : "", s.name,
                 static_cast<int>(std::strcspn(s.name, ".")), s.name, s.tid,
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Steal and total jiffies of all CPUs from /proc/stat: time the
/// hypervisor gave this host's vCPUs to someone else.
std::pair<double, double> cpu_steal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

struct Args {
  std::string workload, source_id = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, tiny = false;
  Off corrupt_read = -1;
  int worlds = kWorlds;  ///< worlds this process measures
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") { a.tiny = true; continue; }
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--source-id") a.source_id = v;
    else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600))
        die("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") die("bad --trace " + v);
      a.trace = v == "1";
    } else if (k == "--worlds") {
      a.worlds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.worlds < 1 || a.worlds > kWorlds)
        die("bad --worlds " + v);
    } else if (k == "--corrupt-read") {
      a.corrupt_read = std::strtoll(v.c_str(), &end, 10);
    } else {
      die("unknown argument " + k);
    }
  }
  if (!have_seed) die("--seed N is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold the first time a large mmapped block
  // is freed (up to 32 MiB, with the trim threshold at twice that), so
  // whether per-op buffers are page-faulted afresh or reused from the heap
  // depended on allocation history and split runs into two modes.  Pin
  // both thresholds at the values that heuristic converges to.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const Args a = parse(argc, argv);
  const auto steal0 = cpu_steal();
  const std::vector<Workload> all = workloads();
  const Workload* w = nullptr;
  for (const auto& x : all)
    if (a.workload == x.name) w = &x;
  if (w == nullptr) die("unknown --workload '" + a.workload + "'");

  RunConfig rc{w, {w->sblock, w->nblock, w->op_bytes, a.tiny ? 4 : w->slots},
               a.seed};
  const int worlds = a.tiny ? 1 : a.worlds;
  auto rounds = [&](int per_10s) {
    return a.tiny ? 1
                  : std::max(1, static_cast<int>(std::lround(
                                    per_10s * a.seconds / 10.0 / kWorlds)));
  };
  const int wr = rounds(w->write_rounds_per_10s);
  const int rr = rounds(w->read_rounds_per_10s);

  WorldResult u, t;
  bool threw = false;
  try {
    // The traced worlds get the full round count (the tail needs samples);
    // the untraced reference they are compared with gets half.
    const bool halve = a.trace && !a.tiny;
    rc.write_rounds = halve ? std::max(1, wr / 2) : wr;
    rc.read_rounds = halve ? std::max(1, rr / 2) : rr;
    rc.corrupt_read = a.corrupt_read;
    u = run_worlds(rc, worlds);
    if (a.trace) {
      rc.write_rounds = wr;
      rc.read_rounds = rr;
      rc.traced = true;
      rc.corrupt_read = -1;
      t = run_worlds(rc, worlds);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w->name, e.what());
    threw = true;
  }

  for (const auto* ph : {&u.write, &u.read}) {
    std::fprintf(stderr, "%s rounds MiB/s:", ph == &u.write ? "write" : "read");
    for (double x : ph->round_mbps) std::fprintf(stderr, " %.1f", x);
    std::fprintf(stderr, "\n");
  }

  Metrics m;
  std::map<std::string, double> self_ms;
  if (!threw) {
    if (!a.trace) {
      m.add("write_mbps_pp", u.write.mbps(), "MiB/s");
      m.add("read_mbps_pp", u.read.mbps(), "MiB/s");
      m.add("setup_s", median(u.setup_s), "s");
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6,
            "MB");
    } else {
      self_ms = self_time_ms();
      per_layer(rc, u, t, self_ms, m);
      for (const auto& [layer, ms] : self_ms)
        std::fprintf(stderr, "self ms/op %-6s %.4f\n", layer.c_str(),
                     ms / std::max(1.0, t.sums.ops));
    }
  }
  Off attempted = u.attempted + t.attempted;
  Off failed = u.failed + t.failed;
  if (threw) failed = attempted = std::max<Off>(attempted, 1);

  const std::string host = host_stamp(a.source_id);
  if (a.trace && !threw) {
    write_trace(".bench_build/traces/" + std::string(w->name) + "-seed" +
                    std::to_string(a.seed) + ".json",
                host, self_ms, t.sums.ops);
  }
  const auto steal1 = cpu_steal();
  std::printf("data: %016llx\n", static_cast<unsigned long long>(u.digest));
  std::printf("steal: %.4f\n", ratio(steal1.first - steal0.first,
                                     steal1.second - steal0.second));
  std::printf("host: %s\n", host.c_str());
  if (!a.trace && !threw) {
    // Per-world samples, for a caller that pools several processes' runs.
    auto list = [](const std::vector<double>& v) {
      std::string o = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        char num[32];
        std::snprintf(num, sizeof num, "%s%.17g", i ? "," : "", v[i]);
        o += num;
      }
      return o + "]";
    };
    std::printf("worlds: {\"write_mbps_pp\":%s,\"read_mbps_pp\":%s,"
                "\"setup_s\":%s}\n",
                list(u.write.world_mbps).c_str(),
                list(u.read.world_mbps).c_str(), list(u.setup_s).c_str());
  }
  std::string res = "{\"correct\":";
  res += failed == 0 ? "true" : "false";
  res += ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.v[i].second.first);
    if (i) res += ',';
    res += json_str(m.v[i].first);
    res += ":{\"value\":";
    res += num;
    res += ",\"unit\":";
    res += json_str(m.v[i].second.second);
    res += '}';
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
