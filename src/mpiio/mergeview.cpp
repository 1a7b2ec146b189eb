#include "mpiio/mergeview.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "fotf/cursor.hpp"
#include "fotf/navigate.hpp"

namespace llio::mpiio {

namespace {

/// Per-contribution analysis state: the segment cursor is built lazily —
/// only windows that survive the cheap sum test pay for it.
struct ViewState {
  const ViewContribution* c;
  std::unique_ptr<fotf::SegmentCursor> cur;
  Off prev_s = 0;  ///< clamped stream offset at the previous window edge
  Off abs_lo = 0;  ///< file offset of the first accessed byte
  Off abs_hi = 0;  ///< one past the file offset of the last accessed byte
};

/// Stream bytes of `c` with absolute file offset < abs, clamped to the
/// rank's actual access interval.
Off clamped_below(const ViewContribution& c, Off abs) {
  return std::clamp(fotf::data_below(c.filetype, abs - c.disp), c.s_lo,
                    c.s_hi);
}

fotf::SegmentCursor& cursor_of(ViewState& st) {
  if (!st.cur) {
    // Enough filetype instances to seek anywhere in [0, s_hi].
    const Off size = st.c->filetype->size();
    const Off instances = ceil_div(st.c->s_hi, std::max<Off>(size, 1)) + 1;
    st.cur = std::make_unique<fotf::SegmentCursor>(st.c->filetype, instances);
  }
  return *st.cur;
}

/// Exact hole test for window [wlo, whi): k-way merge of the contributing
/// cursors' segment streams (each delivered in increasing file order by
/// monotonicity), advancing a coverage frontier; the first gap decides.
/// slices[i] is contribution i's clamped stream interval for this window;
/// every segment taken off the heap is added to `merged`.
bool window_union_dense(Off wlo, Off whi, std::vector<ViewState>& active,
                        const std::vector<std::pair<Off, Off>>& slices,
                        Off& merged) {
  struct Seg {
    Off start, end;
    std::size_t idx;
  };
  const auto later = [](const Seg& a, const Seg& b) {
    return a.start > b.start;
  };
  std::priority_queue<Seg, std::vector<Seg>, decltype(later)> heap(later);
  for (std::size_t i = 0; i < active.size(); ++i) {
    const auto [s1, s2] = slices[i];
    if (s2 <= s1) continue;
    fotf::SegmentCursor& cur = cursor_of(active[i]);
    cur.seek(s1);
    if (cur.at_end()) continue;
    // mem_start(s1) >= wlo - disp, so no segment starts before the window.
    const Off start = active[i].c->disp + cur.run_mem();
    const Off len = std::min(cur.run_len(), s2 - cur.stream_pos());
    heap.push({start, start + len, i});
  }
  Off frontier = wlo;
  while (!heap.empty() && frontier < whi) {
    const Seg top = heap.top();
    heap.pop();
    ++merged;
    if (top.start > frontier) return false;  // hole
    frontier = std::max(frontier, std::min(top.end, whi));
    fotf::SegmentCursor& cur = *active[top.idx].cur;
    cur.consume(top.end - top.start);
    const Off limit = slices[top.idx].second;
    if (!cur.at_end() && cur.stream_pos() < limit) {
      const Off start = active[top.idx].c->disp + cur.run_mem();
      const Off len = std::min(cur.run_len(), limit - cur.stream_pos());
      heap.push({start, start + len, top.idx});
    }
  }
  return frontier >= whi;
}

/// Exact hole test for window [wlo, whi) that merges at most one period
/// of segments per piece.  Contribution i covers its view pattern
/// (periodic at extent_i) inside [abs_lo, abs_hi) and nothing outside.
/// Cutting the window at every such bound that falls inside it leaves
/// pieces with a fixed active set, whose union therefore repeats at
/// L = lcm(active extents): a piece longer than L is dense iff its first
/// L bytes are.  When an extent is not positive, the lcm overflows, or L
/// is not shorter than the piece, the whole piece is merged.  `cuts` and
/// `slices` are buffers reused across calls.
bool window_dense_periodic(Off wlo, Off whi, std::vector<ViewState>& active,
                           std::vector<std::pair<Off, Off>>& slices,
                           std::vector<Off>& cuts, Off& merged) {
  cuts.assign({wlo, whi});
  for (const ViewState& st : active)
    for (const Off x : {st.abs_lo, st.abs_hi})
      if (x > wlo && x < whi) cuts.push_back(x);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const Off plo = cuts[k];
    const Off phi = cuts[k + 1];
    Off period = 1;
    bool periodic = true;
    for (const ViewState& st : active) {
      if (st.abs_lo > plo || st.abs_hi < phi) continue;  // inactive here
      const Off ext = st.c->filetype->extent();
      if (ext <= 0 ||
          __builtin_mul_overflow(period / std::gcd(period, ext), ext,
                                 &period)) {
        periodic = false;
        break;
      }
    }
    const Off chi = periodic && period < phi - plo ? plo + period : phi;
    for (std::size_t i = 0; i < active.size(); ++i)
      slices[i] = {clamped_below(*active[i].c, plo),
                   clamped_below(*active[i].c, chi)};
    if (!window_union_dense(plo, chi, active, slices, merged)) return false;
  }
  return true;
}

/// Analysis-local tuple cursor: the caller's tuple-consumption state (used
/// by the actual scatter) must stay untouched.
struct TupleState {
  std::span<const dt::OlTuple> tuples;
  std::size_t idx = 0;
  Off within = 0;  ///< bytes of tuples[idx] already behind the cursor
};

/// Exact hole test for window [wlo, whi) over the senders' tuple runs,
/// each starting at its window-start cursor in `runs` and sorted by file
/// offset: a k-way frontier sweep that pops the run with the lowest head
/// and consumes it while its tuples touch the frontier.  Linear in the
/// segments visited; no window-wide sort.  Every tuple consumed is added
/// to `merged`.
bool tuples_union_dense(Off wlo, Off whi, std::vector<TupleState>& runs,
                        Off& merged) {
  const auto head = [](const TupleState& r) {
    return r.tuples[r.idx].off + r.within;
  };
  const auto later = [&](std::size_t a, std::size_t b) {
    return head(runs[a]) > head(runs[b]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)>
      heap(later);
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].idx < runs[i].tuples.size() && head(runs[i]) < whi)
      heap.push(i);
  Off frontier = wlo;
  while (!heap.empty() && frontier < whi) {
    const std::size_t top = heap.top();
    heap.pop();
    TupleState& r = runs[top];
    if (head(r) > frontier) return false;  // hole
    do {
      const dt::OlTuple& tp = r.tuples[r.idx];
      frontier = std::max(frontier, tp.off + tp.len);
      ++r.idx;
      r.within = 0;
      ++merged;
    } while (r.idx < r.tuples.size() && head(r) <= frontier &&
             frontier < whi);
    if (r.idx < r.tuples.size() && head(r) < whi) heap.push(top);
  }
  return frontier >= whi;
}

}  // namespace

DomainWindows analyze_view_domain(
    Off dom_lo, Off dom_hi, Off win,
    const std::vector<ViewContribution>& contribs) {
  LLIO_REQUIRE(win >= 1 && dom_hi >= dom_lo, Errc::InvalidArgument,
               "mergeview: bad domain/window");
  DomainWindows out;
  out.lo = dom_lo;
  out.hi = dom_hi;
  out.win = win;
  const Off nwin = dom_hi > dom_lo ? ceil_div(dom_hi - dom_lo, win) : 0;
  out.dense.assign(to_size(nwin), 0);
  if (nwin == 0) return out;

  std::vector<ViewState> active;
  for (const ViewContribution& c : contribs) {
    if (c.s_hi <= c.s_lo || !c.filetype || c.filetype->size() <= 0) continue;
    active.push_back({&c, nullptr, clamped_below(c, dom_lo),
                      c.disp + fotf::mem_start(c.filetype, c.s_lo),
                      c.disp + fotf::mem_end(c.filetype, c.s_hi)});
  }

  // Fast path: one rank's unclamped view already tiles the whole domain
  // hole-free — two navigation calls settle every window at once.
  for (const ViewState& st : active) {
    const ViewContribution& c = *st.c;
    const Off raw_lo = fotf::data_below(c.filetype, dom_lo - c.disp);
    const Off raw_hi = fotf::data_below(c.filetype, dom_hi - c.disp);
    if (raw_lo >= c.s_lo && raw_hi <= c.s_hi &&
        fotf::window_dense(c.filetype, dom_lo - c.disp, dom_hi - c.disp)) {
      std::fill(out.dense.begin(), out.dense.end(), std::uint8_t{1});
      out.all_dense = true;
      return out;
    }
  }

  std::vector<std::pair<Off, Off>> slices(active.size());
  std::vector<Off> cuts;
  bool all = true;
  for (Off w = 0; w < nwin; ++w) {
    const Off wlo = dom_lo + w * win;
    const Off whi = std::min(dom_hi, wlo + win);
    const Off size = whi - wlo;
    Off sum = 0;
    Off best = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Off s1 = active[i].prev_s;
      const Off s2 = clamped_below(*active[i].c, whi);
      active[i].prev_s = s2;
      sum += s2 - s1;
      best = std::max(best, s2 - s1);
    }
    bool dense;
    if (best == size) {
      // A single rank lands `size` distinct stream bytes in a window of
      // `size` bytes: every offset is covered (monotone views).
      dense = true;
    } else if (sum < size) {
      dense = false;  // even the multiset of contributions is too small
    } else {
      dense = window_dense_periodic(wlo, whi, active, slices, cuts,
                                    out.segments_merged);
    }
    out.dense[to_size(w)] = dense ? 1 : 0;
    all = all && dense;
  }
  out.all_dense = all;
  return out;
}

DomainWindows analyze_tuple_domain(
    Off dom_lo, Off dom_hi, Off win,
    const std::vector<std::span<const dt::OlTuple>>& lists) {
  LLIO_REQUIRE(win >= 1 && dom_hi >= dom_lo, Errc::InvalidArgument,
               "mergeview: bad domain/window");
  DomainWindows out;
  out.lo = dom_lo;
  out.hi = dom_hi;
  out.win = win;
  const Off nwin = dom_hi > dom_lo ? ceil_div(dom_hi - dom_lo, win) : 0;
  out.dense.assign(to_size(nwin), 0);
  if (nwin == 0) return out;

  std::vector<TupleState> st;
  for (const auto& l : lists)
    if (!l.empty()) st.push_back({l, 0, 0});

  std::vector<TupleState> at_wlo;
  bool all = true;
  for (Off w = 0; w < nwin; ++w) {
    const Off wlo = dom_lo + w * win;
    const Off whi = std::min(dom_hi, wlo + win);
    const Off size = whi - wlo;
    at_wlo = st;
    Off sum = 0;
    Off best = 0;
    for (TupleState& s : st) {
      Off contrib = 0;
      while (s.idx < s.tuples.size()) {
        const dt::OlTuple& tp = s.tuples[s.idx];
        const Off off = tp.off + s.within;
        if (off >= whi) break;
        LLIO_ASSERT(off >= wlo, "analyze_tuple_domain: tuple behind window");
        const Off cut = std::min(tp.len - s.within, whi - off);
        contrib += cut;
        s.within += cut;
        if (s.within == tp.len) {
          ++s.idx;
          s.within = 0;
        }
        if (off + cut == whi) break;
      }
      sum += contrib;
      best = std::max(best, contrib);
    }
    bool dense;
    if (best == size) {
      dense = true;  // one sender's (non-overlapping) tuples fill it
    } else if (sum < size) {
      dense = false;
    } else {
      dense = tuples_union_dense(wlo, whi, at_wlo, out.segments_merged);
    }
    out.dense[to_size(w)] = dense ? 1 : 0;
    all = all && dense;
  }
  out.all_dense = all;
  return out;
}

bool ranges_dense_disjoint(const std::vector<AccessRange>& ranges) {
  std::vector<std::pair<Off, Off>> spans;
  for (const AccessRange& r : ranges) {
    if (r.nbytes <= 0) continue;
    if (r.abs_hi - r.abs_lo != r.nbytes) return false;
    spans.push_back({r.abs_lo, r.abs_hi});
  }
  if (spans.empty()) return false;
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i)
    if (spans[i].first < spans[i - 1].second) return false;
  return true;
}

bool ranges_dense(const std::vector<AccessRange>& ranges) {
  bool any = false;
  for (const AccessRange& r : ranges) {
    if (r.nbytes <= 0) continue;
    if (r.abs_hi - r.abs_lo != r.nbytes) return false;
    any = true;
  }
  return any;
}

const DomainWindows& MergeCache::get(
    Key key, const std::function<DomainWindows()>& compute) {
  const auto same = [&](const Entry& e) {
    return e.key.epoch == key.epoch && e.key.dom_lo == key.dom_lo &&
           e.key.dom_hi == key.dom_hi && e.key.win == key.win &&
           e.key.ranges.size() == key.ranges.size() &&
           (key.ranges.empty() ||
            std::memcmp(e.key.ranges.data(), key.ranges.data(),
                        key.ranges.size() * sizeof(AccessRange)) == 0);
  };
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (same(entries_[i])) {
      ++hits_;
      std::rotate(entries_.begin(), entries_.begin() + static_cast<long>(i),
                  entries_.begin() + static_cast<long>(i) + 1);
      return entries_.front().value;
    }
  }
  ++misses_;
  entries_.insert(entries_.begin(), Entry{std::move(key), compute()});
  if (entries_.size() > kCapacity) entries_.pop_back();
  return entries_.front().value;
}

}  // namespace llio::mpiio
