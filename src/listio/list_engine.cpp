#include "listio/list_engine.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "listio/list_mover.hpp"
#include "mpiio/mergeview.hpp"
#include "mpiio/pipeline.hpp"
#include "obs/trace.hpp"

namespace llio::listio {

using mpiio::AccessRange;
using mpiio::Domain;
using mpiio::View;

OlDescriptor decode_ol_list(ConstByteSpan msg, const AccessRange& sender,
                            const Domain& dom) {
  constexpr std::size_t kHdr = 3 * sizeof(Off);
  OlDescriptor d;
  d.s_lo = mpiio::get_off(msg, 0);
  d.s_hi = mpiio::get_off(msg, sizeof(Off));
  const Off n = mpiio::get_off(msg, 2 * sizeof(Off));
  // Bound n by the bytes present before multiplying: a huge n must not
  // wrap (3 + 2n) * 8 around to the message size.
  constexpr std::size_t kTuple = sizeof(dt::OlTuple);
  LLIO_REQUIRE(n >= 0 && to_size(n) <= (msg.size() - kHdr) / kTuple &&
                   msg.size() == kHdr + to_size(n) * kTuple,
               Errc::Protocol, "collective list message: bad size");
  LLIO_REQUIRE(d.s_lo <= d.s_hi && d.s_lo >= sender.stream_lo &&
                   d.s_hi - sender.stream_lo <= sender.nbytes,
               Errc::Protocol,
               "collective list message: slice outside the sender's access");
  d.tuples.resize(to_size(n));
  if (n > 0)
    std::memcpy(d.tuples.data(), msg.data() + kHdr, to_size(n) * kTuple);
  // Tuples must be ascending, disjoint, inside the domain, and cover
  // exactly the stream slice: the window fill indexes the data by their
  // running length sum.
  Off end = dom.lo, sum = 0;
  for (const dt::OlTuple& t : d.tuples) {
    LLIO_REQUIRE(t.len > 0 && t.off >= end && t.len <= dom.hi - t.off &&
                     t.len <= d.s_hi - d.s_lo - sum,
                 Errc::Protocol,
                 "collective list message: tuple out of order, outside the "
                 "domain or past the slice");
    end = t.off + t.len;
    sum += t.len;
  }
  LLIO_REQUIRE(sum == d.s_hi - d.s_lo, Errc::Protocol,
               "collective list message: tuples do not cover the slice");
  return d;
}

void ListEngine::set_view(const View& v) {
  validate_view(v);
  view_ = v;
  ++view_epoch_;  // invalidates cached mergeview verdicts
  stats_ = mpiio::IoOpStats{};
  // Explicit flattening (§2.1): build and store the filetype ol-list.
  WallTimer t;
  ft_list_ = dt::flatten(v.filetype);
  view_flatten_s_ = t.seconds();
  stats_.list_build_s += view_flatten_s_;
  stats_.list_mem_bytes = ft_list_.memory_bytes();
  nav_ = std::make_unique<OlViewNav>(&ft_list_, v.ft_extent(), &stats_);
  // No fileview caching: nothing is exchanged here (ROMIO behaviour);
  // keep ranks loosely synchronized like the collective MPI call would.
  comm_->barrier();
}

std::unique_ptr<mpiio::StreamMover> ListEngine::make_nc_mover(
    const void* buf, Off count, const dt::Type& mt) {
  return std::make_unique<ListMover>(buf, count, mt, stats_);
}

/// The list-based two-phase strategy (§2.3): the descriptor is an
/// absolute-offset ol-list clipped to the IOP's domain, shipped in a Meta
/// exchange of its own; the IOP walks every sender's list window by
/// window and copies tuple by tuple.
class ListEngine::Strategy final : public mpiio::TwoPhaseStrategy {
 public:
  explicit Strategy(ListEngine& e) : e_(e) {}

  bool descriptor_in_data() const override { return false; }

  // The N_coll expansion (§2.3): walk my access tuple by tuple across
  // filetype instances and clip every block against the IOP domains.
  // Cost and memory are O(S_access / S_extent * N_block) in total.
  std::vector<Slice> describe(const AccessRange& mine,
                              const std::vector<Domain>& doms) override {
    obs::Span span("list_build");
    WallTimer t;
    const View& view = e_.view_;
    std::vector<Slice> out(doms.size());
    std::vector<std::vector<dt::OlTuple>> lists(doms.size());
    // Append [mem, mem + len) at stream offset s to domain di's list.
    auto add = [&](std::size_t di, Off mem, Off len, Off s) {
      std::vector<dt::OlTuple>& l = lists[di];
      if (l.empty()) out[di].s1 = s;
      if (!l.empty() && l.back().off + l.back().len == mem)
        l.back().len += len;
      else
        l.push_back({mem, len});
      out[di].s2 = s + len;
    };
    if (mine.nbytes > 0) {
      OlWalker w(&e_.ft_list_, view.ft_extent());
      w.position(mine.stream_lo);
      if (view.dense()) {
        // Contiguous fileview: the access is one file range; one tuple
        // per domain (ROMIO treats contiguous filetypes with plain
        // offsets).
        const Off a0 = view.disp + w.mem();
        for (std::size_t di = 0; di < doms.size(); ++di) {
          const Off lo = std::max(doms[di].lo, a0);
          const Off hi = std::min(doms[di].hi, a0 + mine.nbytes);
          if (hi > lo) add(di, lo, hi - lo, mine.stream_lo + (lo - a0));
        }
      } else {
        Off s = mine.stream_lo;
        const Off s_end = mine.stream_lo + mine.nbytes;
        std::size_t di = 0;
        while (s < s_end) {
          Off seg_mem = view.disp + w.run_mem();
          Off seg_len = std::min(w.run_len(), s_end - s);
          w.consume(seg_len);
          while (seg_len > 0) {
            while (di < doms.size() &&
                   (doms[di].empty() || doms[di].hi <= seg_mem))
              ++di;
            LLIO_ASSERT(di < doms.size() && seg_mem >= doms[di].lo,
                        "list describe: segment outside all domains");
            const Off cut = std::min(seg_len, doms[di].hi - seg_mem);
            add(di, seg_mem, cut, s);
            seg_mem += cut;
            seg_len -= cut;
            s += cut;
          }
        }
      }
    }
    e_.stats_.list_build_s += t.seconds();
    Off list_mem = 0;
    for (std::size_t di = 0; di < doms.size(); ++di) {
      const std::vector<dt::OlTuple>& l = lists[di];
      if (l.empty()) continue;
      const std::size_t list_bytes = l.size() * sizeof(dt::OlTuple);
      ByteVec& wire = out[di].wire;
      mpiio::put_off(wire, out[di].s1);
      mpiio::put_off(wire, out[di].s2);
      mpiio::put_off(wire, to_off(l.size()));
      wire.resize(wire.size() + list_bytes);
      std::memcpy(wire.data() + wire.size() - list_bytes, l.data(), list_bytes);
      list_mem += to_off(list_bytes);
    }
    e_.stats_.list_bytes_sent += list_mem;
    e_.stats_.list_mem_bytes = std::max(e_.stats_.list_mem_bytes, list_mem);
    return out;
  }

  std::size_t decode(ConstByteSpan msg, bool /*with_payload*/,
                     const AccessRange& sender, const Domain& dom,
                     Source& out) override {
    OlDescriptor d = decode_ol_list(msg, sender, dom);
    out.s_lo = d.s_lo;
    out.s_hi = d.s_hi;
    recvs_.push_back({std::move(d.tuples), 0, 0, d.s_lo});
    return msg.size();
  }

  void window(std::span<const Source> /*srcs*/, Off lo, Off hi,
              std::vector<Piece>& out) override {
    for (std::size_t k = 0; k < recvs_.size(); ++k) {
      RecvList& r = recvs_[k];
      while (r.idx < r.tuples.size()) {
        const dt::OlTuple& t = r.tuples[r.idx];
        const Off off = t.off + r.within;
        if (off >= hi) break;
        LLIO_ASSERT(off >= lo, "collective tuple behind current window");
        const Off cut = std::min(t.len - r.within, hi - off);
        out.push_back({k, r.s, cut, off});
        r.s += cut;
        r.within += cut;
        if (r.within == t.len) {
          ++r.idx;
          r.within = 0;
        }
        if (off + cut == hi) break;
      }
    }
  }

  void fill(std::span<const Source> srcs, const mpiio::WindowPlan& plan,
            ByteSpan win, std::span<const Piece> pieces,
            bool writing) override {
    for (const Piece& pc : pieces) {
      const Source& src = srcs[pc.src];
      Byte* stream = src.data + (pc.s - src.s_lo);
      Byte* file = win.data() + (pc.off - plan.lo);
      if (writing)
        std::memcpy(file, stream, to_size(pc.len));
      else
        std::memcpy(stream, file, to_size(pc.len));
    }
  }

  mpiio::DomainWindows analyze(
      const Domain& dom, Off win,
      const std::vector<AccessRange>& /*ranges*/) override {
    std::vector<std::span<const dt::OlTuple>> lists;
    lists.reserve(recvs_.size());
    for (const RecvList& r : recvs_) lists.push_back(r.tuples);
    return mpiio::analyze_tuple_domain(dom.lo, dom.hi, win, lists);
  }

 private:
  /// One sender's received list and the window walk's cursor into it.
  struct RecvList {
    std::vector<dt::OlTuple> tuples;
    std::size_t idx = 0;  ///< current tuple
    Off within = 0;       ///< bytes consumed of the current tuple
    Off s = 0;            ///< stream offset of the next byte
  };

  ListEngine& e_;
  std::vector<RecvList> recvs_;  ///< in decode (= source) order
};

std::unique_ptr<mpiio::TwoPhaseStrategy> ListEngine::two_phase_strategy() {
  return std::make_unique<Strategy>(*this);
}

}  // namespace llio::listio
