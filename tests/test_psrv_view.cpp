// The psrv servers' view service: ReadView/WriteView requests run through
// the engine's independent-access code (mpiio::sieve_or_direct) over the
// server's shard.  Checked here: byte equivalence with a MemFile
// model on both sides of the sieve fill rule, across sieve windows and
// shard boundaries; no lost updates between sessions sharing a shard;
// the extent count a sieved view op costs; and Protocol replies to
// hostile requests, after which the server keeps serving.
#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "dtype/serialize.hpp"
#include "io_test_util.hpp"
#include "psrv/wire.hpp"

namespace llio::psrv {
namespace {

/// Visit the file runs of view stream bytes [s, s + n) of `ft` displaced
/// by `disp`: fn(file offset, stream offset, length).  Walks the flattened
/// ol-list, independent of the navigation code under test.
template <class Fn>
void for_each_view_run(const dt::Type& ft, Off disp, Off s, Off n, Fn fn) {
  const auto list = dt::flatten(ft, false);
  const Off end = s + n;
  Off inst = s / ft->size();
  Off pos = inst * ft->size();
  for (; pos < end; ++inst) {
    const Off base = disp + inst * ft->extent();
    for (const auto& tp : list.tuples()) {
      const Off lo = std::max(pos, s);
      const Off hi = std::min(pos + tp.len, end);
      if (lo < hi) fn(base + tp.off + (lo - pos), lo, hi - lo);
      pos += tp.len;
      if (pos >= end) break;
    }
  }
}

void model_write(pfs::FileBackend& model, const dt::Type& ft, Off disp,
                 Off s, ConstByteSpan data) {
  for_each_view_run(ft, disp, s, to_off(data.size()),
                    [&](Off file, Off stream, Off len) {
                      model.pwrite(file, data.subspan(to_size(stream - s),
                                                      to_size(len)));
                    });
}

ByteVec model_read(pfs::FileBackend& model, const dt::Type& ft, Off disp,
                   Off s, Off n) {
  ByteVec out(to_size(n), Byte{0});
  for_each_view_run(ft, disp, s, n, [&](Off file, Off stream, Off len) {
    model.pread(file, ByteSpan(out.data() + (stream - s), to_size(len)));
  });
  return out;
}

/// 8-byte blocks at a stride of `stride` bytes: fill = 8 / stride.
dt::Type blocks_of_8(Off nblock, Off stride, Off first = 0) {
  const dt::Type v = dt::hvector(nblock, 8, stride, dt::byte());
  const Off bls[] = {1};
  const Off ds[] = {first};
  return dt::resized(dt::hindexed(bls, ds, v), 0, nblock * stride);
}

struct ViewCase {
  const char* name;
  dt::Type ft;
  Off disp;
  Off stream_lo;
  Off n;
};

TEST(PsrvViewService, MatchesMemFileModel) {
  // Two servers split at 1 MiB, so the larger accesses straddle the
  // shard boundary and server 1 sees spans of several 4 MiB windows.
  PoolConfig cfg;
  cfg.nservers = 2;
  cfg.stripe = 1 << 20;
  cfg.capacity = 2 << 20;
  auto f = ServerFile::create(ServerPool::create(cfg), RequestClass::View);
  auto model = pfs::MemFile::create();
  const ViewCase cases[] = {
      // fill 0.5 >= 0.2: sieve windows
      {"sieve", blocks_of_8(64, 16), 0, 0, 4096},
      {"sieve-straddle", blocks_of_8(1024, 16), (1 << 20) - 5000, 24, 40000},
      // fill 0.125 < 0.2: per-run direct I/O
      {"direct", blocks_of_8(64, 64, 8), 0, 0, 2048},
      {"direct-straddle", blocks_of_8(256, 64, 40), (1 << 20) - 3000, 8, 8192},
      // unaligned displacement and stream start, mid-block
      {"unaligned", blocks_of_8(32, 24, 3), 13, 5, 1000},
      // 5 MiB at fill 0.5: a ~10 MiB span, several sieve windows
      {"multi-window", blocks_of_8(4096, 16), 777, 3, 5 << 20},
      // dense: covered sieve windows, written without a pre-read
      {"dense", dt::contiguous(64, dt::byte()), 100, 7, 300000},
  };
  int seed = 1;
  for (const ViewCase& c : cases) {
    const ByteVec data = iotest::payload_stream(seed++, c.n);
    EXPECT_EQ(f->view_write(c.ft, c.disp, c.stream_lo, data), c.n) << c.name;
    model_write(*model, c.ft, c.disp, c.stream_lo, data);
  }
  for (const ViewCase& c : cases) {
    ByteVec back(to_size(c.n));
    EXPECT_EQ(f->view_read(c.ft, c.disp, c.stream_lo, back), c.n) << c.name;
    EXPECT_EQ(back, model_read(*model, c.ft, c.disp, c.stream_lo, c.n))
        << c.name;
  }
  ByteVec img = iotest::backend_image(f);
  ByteVec want = iotest::backend_image(model);
  iotest::pad_to_common(img, want);
  EXPECT_TRUE(img == want) << "file image differs from the model";
}

TEST(PsrvViewService, InterleavedSessionsLoseNoUpdate) {
  // Two sessions sieve-write interleaved 8-byte blocks of one shard at
  // the same time.  Each server-side write is a read-modify-write of a
  // whole window, so a window served concurrently with another would
  // put back stale neighbour bytes.
  PoolConfig cfg;
  cfg.nservers = 2;
  auto pool = ServerPool::create(cfg);
  const Off nblock = 512;
  const Off n = nblock * 8;
  constexpr int kRounds = 20;
  const auto ft_of = [&](int rank) {
    return blocks_of_8(nblock, 16, 8 * rank);
  };
  std::vector<std::thread> writers;
  for (int rank = 0; rank < 2; ++rank)
    writers.emplace_back([&, rank] {
      auto f = ServerFile::create(pool, RequestClass::View);
      for (int round = 0; round < kRounds; ++round)
        f->view_write(ft_of(rank), 0, 0,
                      iotest::payload_stream(rank + 2 * round, n));
    });
  for (auto& t : writers) t.join();
  auto model = pfs::MemFile::create();
  for (int rank = 0; rank < 2; ++rank)
    model_write(*model, ft_of(rank), 0, 0,
                iotest::payload_stream(rank + 2 * (kRounds - 1), n));
  auto reader = ServerFile::create(pool, RequestClass::Contig);
  ByteVec img = iotest::backend_image(reader);
  ByteVec want = iotest::backend_image(model);
  iotest::pad_to_common(img, want);
  EXPECT_TRUE(img == want) << "a view write lost a neighbour's update";
}

TEST(PsrvViewService, SievedViewOpCostsOneExtentPerWindow) {
  // The repo benchmark's shape: 8-byte blocks at fill 0.5, 2 MiB of data
  // per op over two servers.  Each server issues at most one extent per
  // 4 MiB sieve window of its part of the span, not one per block.
  PoolConfig cfg;
  cfg.nservers = 2;
  cfg.capacity = 4 << 20;
  auto pool = ServerPool::create(cfg);
  auto f = ServerFile::create(pool, RequestClass::View);
  const Off n = 2 << 20;
  const dt::Type ft = blocks_of_8(n / 8, 16);
  const Off fbs = mpiio::Options{}.file_buffer_size;
  const Off abs_lo = fotf::mem_start(ft, 0);
  const Off abs_hi = fotf::mem_end(ft, n);
  const ByteVec data = iotest::payload_stream(5, n);
  ByteVec back(to_size(n));
  for (bool writing : {true, false}) {
    std::vector<ServerStats> before;
    for (int s = 0; s < pool->nservers(); ++s)
      before.push_back(pool->server_stats(s));
    if (writing)
      f->view_write(ft, 0, 0, data);
    else
      f->view_read(ft, 0, 0, back);
    for (int s = 0; s < pool->nservers(); ++s) {
      const mpiio::Domain& d = pool->domains()[to_size(Off{s})];
      const Off span = std::max<Off>(
          0, std::min(abs_hi, d.hi) - std::max(abs_lo, d.lo));
      const std::uint64_t extents =
          pool->server_stats(s).view_segments -
          before[to_size(Off{s})].view_segments;
      EXPECT_GT(extents, 0u) << "server " << s;
      EXPECT_LE(extents, static_cast<std::uint64_t>(ceil_div(span, fbs)))
          << "server " << s << (writing ? " write" : " read");
    }
  }
  EXPECT_EQ(back, data);
}

TEST(PsrvViewService, SparseViewOpIssuesOneExtentPerRun) {
  // Below the fill rule (8 of every 64 bytes) sieving would move mostly
  // gaps: the server takes the direct path, one extent per 8-byte run.
  auto pool = ServerPool::create(PoolConfig{});
  auto f = ServerFile::create(pool, RequestClass::View);
  const Off nblock = 64;
  const dt::Type ft = blocks_of_8(nblock, 64);
  const ByteVec data = iotest::payload_stream(6, nblock * 8);
  f->view_write(ft, 0, 0, data);
  EXPECT_EQ(pool->total_server_stats().view_segments,
            static_cast<std::uint64_t>(nblock));
}

// ---- hostile requests ----------------------------------------------------

/// Send one raw request to server `s` and return (status, errc) of its
/// reply (errc is 0 unless the status is Fail).
std::pair<wire::Status, Errc> raw_round_trip(ServerPool& pool, int s,
                                             const ByteVec& msg) {
  auto ep = pool.checkout();
  ep.comm().send(s, wire::kTagRequest, ConstByteSpan(msg),
                 sim::MsgClass::Meta);
  const ByteVec resp = ep.comm().recv(s, wire::kTagResponse);
  wire::Reader rd(ConstByteSpan(resp.data(), resp.size()));
  const auto status = static_cast<wire::Status>(rd.u8());
  const auto code =
      status == wire::Status::Fail ? static_cast<Errc>(rd.u8()) : Errc{};
  return {status, code};
}

ByteVec view_request(wire::Op op, std::int64_t session, std::int64_t view_id,
                     Off disp, Off stream_lo, Off len, const ByteVec& tree) {
  ByteVec m = wire::request_header(op, session);
  wire::put_i64(m, view_id);
  wire::put_i64(m, disp);
  wire::put_i64(m, stream_lo);
  if (op == wire::Op::ReadView) wire::put_i64(m, len);
  wire::put_i64(m, to_off(tree.size()));
  wire::put_bytes(m, tree);
  if (op == wire::Op::WriteView) m.resize(m.size() + to_size(len), Byte{7});
  return m;
}

TEST(PsrvViewService, HostileRequestsGetProtocolRepliesAndServerServesOn) {
  auto pool = ServerPool::create(iotest::small_pool_config());
  auto f = ServerFile::create(pool, RequestClass::View);
  const std::int64_t session = f->session().id();
  const dt::Type good = iotest::noncontig_filetype(4, 8, 2, 0);
  const ByteVec good_tree = dt::serialize(good);

  // Descending displacements: not monotone, so the server's O(1) shard
  // bounds check would be unsound for it.  Refused at install.
  const Off bls[] = {8, 8};
  const Off ds[] = {32, 0};
  const ByteVec bad_tree = dt::serialize(dt::hindexed(bls, ds, dt::byte()));
  const std::int64_t bad_id = pool->alloc_view_id();
  const Off dom0_hi = pool->domains()[0].hi;
  struct Hostile {
    const char* what;
    ByteVec msg;
  };
  const Hostile hostile[] = {
      {"non-monotone tree",
       view_request(wire::Op::WriteView, session, bad_id, 0, 0, 16,
                    bad_tree)},
      {"access beyond the shard",
       view_request(wire::Op::WriteView, session, pool->alloc_view_id(),
                    dom0_hi, 0, 16, good_tree)},
      {"stream_lo near INT64_MAX",
       view_request(wire::Op::ReadView, session, pool->alloc_view_id(), 0,
                    std::numeric_limits<std::int64_t>::max() - 4, 4,
                    good_tree)},
      {"stream end overflows",
       view_request(wire::Op::ReadView, session, pool->alloc_view_id(), 0,
                    std::numeric_limits<std::int64_t>::max() - 4, 16,
                    good_tree)},
      {"huge displacement",
       view_request(wire::Op::ReadView, session, pool->alloc_view_id(),
                    std::numeric_limits<std::int64_t>::max() - 8, 0, 16,
                    good_tree)},
  };
  for (const Hostile& h : hostile) {
    const auto [status, code] = raw_round_trip(*pool, 0, h.msg);
    EXPECT_EQ(status, wire::Status::Fail) << h.what;
    EXPECT_EQ(code, Errc::Protocol) << h.what;
  }
  // The refused tree was not cached: naming its id again is a miss.
  {
    const ByteVec retry =
        view_request(wire::Op::ReadView, session, bad_id, 0, 0, 16, {});
    EXPECT_EQ(raw_round_trip(*pool, 0, retry).first,
              wire::Status::UnknownView);
  }

  // Every server still serves well-formed view requests.
  const ByteVec stream = iotest::payload_stream(9, 64);
  EXPECT_EQ(f->view_write(good, 0, 0, stream), 64);
  ByteVec back(64);
  EXPECT_EQ(f->view_read(good, 0, 0, back), 64);
  EXPECT_EQ(back, stream);
  auto model = pfs::MemFile::create();
  model_write(*model, good, 0, 0, stream);
  ByteVec img = iotest::backend_image(f);
  ByteVec want = iotest::backend_image(model);
  iotest::pad_to_common(img, want);
  EXPECT_TRUE(img == want);
}

}  // namespace
}  // namespace llio::psrv
