#include "core/listless_engine.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "core/fotf_mover.hpp"
#include "dtype/normalize.hpp"
#include "dtype/serialize.hpp"
#include "mpiio/mergeview.hpp"
#include "mpiio/pipeline.hpp"

namespace llio::core {

using mpiio::AccessRange;
using mpiio::Domain;
using mpiio::get_off;
using mpiio::put_off;
using mpiio::View;

namespace {

fotf::PackConfig pack_config(const mpiio::Options& o) {
  fotf::PackConfig c;
  c.threads = std::max(1, o.pack_threads);
  c.parallel_min = std::max<Off>(1, o.pack_parallel_min);
  c.use_plan = o.pack_plan;
  return c;
}

}  // namespace

void ListlessEngine::set_view(const View& v) {
  validate_view(v);
  view_ = v;
  ++view_epoch_;  // invalidates cached mergeview verdicts
  // Normalize once: the cursor then sees the largest regular strata, and
  // the cached wire form shrinks.  The typemap is provably unchanged.
  const dt::Type ft = dt::normalize(v.filetype);
  const fotf::PackConfig pc = pack_config(opts_);
  nav_ = std::make_unique<ListlessNav>(ft, pc);
  nav_->bind_stats(&stats_);

  // Fileview caching (§3.2.3): exchange the compact representation once.
  ByteVec blob;
  put_off(blob, v.disp);
  const ByteVec enc = dt::serialize(ft);
  blob.insert(blob.end(), enc.begin(), enc.end());
  auto all = comm_->allgather(blob, sim::MsgClass::Meta);

  cached_.clear();
  cached_.reserve(all.size());
  for (auto& raw : all) {
    CachedView cv;
    cv.disp = get_off(raw, 0);
    cv.filetype = dt::deserialize(
        ConstByteSpan(raw.data() + sizeof(Off), raw.size() - sizeof(Off)));
    cv.nav = std::make_unique<ListlessNav>(cv.filetype, pc);
    cv.nav->bind_stats(&stats_);
    cached_.push_back(std::move(cv));
  }
}

void ListlessEngine::on_tuning_changed() {
  const int threads = std::max(1, opts_.pack_threads);
  if (nav_) nav_->set_pack_threads(threads);
  for (CachedView& cv : cached_)
    if (cv.nav) cv.nav->set_pack_threads(threads);
}

std::unique_ptr<mpiio::StreamMover> ListlessEngine::make_nc_mover(
    const void* buf, Off count, const dt::Type& mt) {
  return std::make_unique<FotfMover>(buf, count, mt, pack_config(opts_),
                                     &stats_);
}

std::pair<Off, Off> decode_stream_slice(ConstByteSpan msg, bool with_payload,
                                        const AccessRange& sender) {
  const std::size_t hdr = 2 * sizeof(Off);
  const Off s1 = get_off(msg, 0);
  const Off s2 = get_off(msg, sizeof(Off));
  LLIO_REQUIRE(s1 <= s2 && s1 >= sender.stream_lo &&
                   s2 - sender.stream_lo <= sender.nbytes,
               Errc::Protocol, "two-phase slice outside the sender's access");
  const Off payload = with_payload ? s2 - s1 : 0;
  LLIO_REQUIRE(to_off(msg.size() - hdr) == payload, Errc::Protocol,
               "two-phase slice: bad message size");
  return {s1, s2};
}

/// The listless two-phase strategy (§3.2.3): the descriptor is the stream
/// slice [s1, s2) of the AP's access inside the IOP's domain; the IOP
/// finds each window's part of it, and copies it, through the sender's
/// cached fileview.
class ListlessEngine::Strategy final : public mpiio::TwoPhaseStrategy {
 public:
  explicit Strategy(ListlessEngine& e) : e_(e) {}

  // A write slice is the header of its data message.
  bool descriptor_in_data() const override { return true; }

  std::vector<Slice> describe(const AccessRange& mine,
                              const std::vector<Domain>& doms) override {
    std::vector<Slice> out(doms.size());
    if (mine.nbytes <= 0) return out;
    const Off s_end = mine.stream_lo + mine.nbytes;
    const Off disp = e_.view_.disp;
    for (std::size_t i = 0; i < doms.size(); ++i) {
      const Off lo = std::max(doms[i].lo, mine.abs_lo);
      const Off hi = std::min(doms[i].hi, mine.abs_hi);
      if (hi <= lo) continue;
      Slice& sl = out[i];
      sl.s1 = std::clamp(e_.nav_->file_to_stream(lo - disp), mine.stream_lo,
                         s_end);
      sl.s2 = std::clamp(e_.nav_->file_to_stream(hi - disp), mine.stream_lo,
                         s_end);
      if (sl.s2 <= sl.s1) continue;
      put_off(sl.wire, sl.s1);
      put_off(sl.wire, sl.s2);
    }
    return out;
  }

  std::size_t decode(ConstByteSpan msg, bool with_payload,
                     const AccessRange& sender, const Domain& /*dom*/,
                     Source& out) override {
    std::tie(out.s_lo, out.s_hi) =
        decode_stream_slice(msg, with_payload, sender);
    return 2 * sizeof(Off);
  }

  void window(std::span<const Source> srcs, Off lo, Off hi,
              std::vector<Piece>& out) override {
    for (std::size_t k = 0; k < srcs.size(); ++k) {
      const Source& src = srcs[k];
      const CachedView& cv = e_.cached_[to_size(Off{src.rank})];
      const Off s1 = std::clamp(cv.nav->file_to_stream(lo - cv.disp),
                                src.s_lo, src.s_hi);
      const Off s2 = std::clamp(cv.nav->file_to_stream(hi - cv.disp),
                                src.s_lo, src.s_hi);
      if (s2 > s1) out.push_back({k, s1, s2 - s1, 0});
    }
  }

  void fill(std::span<const Source> srcs, const mpiio::WindowPlan& plan,
            ByteSpan win, std::span<const Piece> pieces,
            bool writing) override {
    for (const Piece& pc : pieces) {
      const Source& src = srcs[pc.src];
      const CachedView& cv = e_.cached_[to_size(Off{src.rank})];
      Byte* stream = src.data + (pc.s - src.s_lo);
      if (writing)
        cv.nav->scatter(win.data(), plan.lo - cv.disp, pc.s, stream, pc.len);
      else
        cv.nav->gather(stream, win.data(), plan.lo - cv.disp, pc.s, pc.len);
    }
  }

  mpiio::DomainWindows analyze(
      const Domain& dom, Off win,
      const std::vector<AccessRange>& ranges) override {
    std::vector<mpiio::ViewContribution> contribs;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      const AccessRange& ar = ranges[r];
      if (ar.nbytes <= 0) continue;
      const CachedView& cv = e_.cached_[r];
      contribs.push_back(
          {cv.filetype, cv.disp, ar.stream_lo, ar.stream_lo + ar.nbytes});
    }
    return mpiio::analyze_view_domain(dom.lo, dom.hi, win, contribs);
  }

 private:
  ListlessEngine& e_;
};

std::unique_ptr<mpiio::TwoPhaseStrategy> ListlessEngine::two_phase_strategy() {
  return std::make_unique<Strategy>(*this);
}

}  // namespace llio::core
