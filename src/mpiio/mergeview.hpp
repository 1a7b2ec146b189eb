// Mergeview contiguity analysis (paper §3.2.4): decide, from the ranks'
// fileviews, whether a collective write tiles each file-buffer window of
// an IOP's file domain without holes.  Hole-free windows need no
// read-modify-write pre-read; when additionally every rank's restriction
// to its access range is one contiguous file extent, the whole
// pack+alltoall exchange can be bypassed with direct writes.
//
// Both front-ends first try two cheap tests per window: one rank's
// clamped slice fills the window (dense), or the slices' byte sum falls
// short of it (holey).  Only the remaining windows need the union:
//  * analyze_view_domain — listless engine: a k-way merge over
//    fotf::SegmentCursors of the *cached* remote fileviews (§3.2.3),
//    never materializing a global ol-list, and bounded to one period of
//    the merged views.  Rank i covers exactly its view pattern (periodic
//    at extent_i) inside its absolute access interval
//    [disp + mem_start(s_lo), disp + mem_end(s_hi)) and nothing outside.
//    Cutting a window at every such bound inside it leaves pieces whose
//    active set is fixed, so their union repeats at L = lcm(extent_i): a
//    piece longer than L is dense iff its first L bytes are, and only
//    those are merged.  When an extent is not positive, the lcm
//    overflows, or L is not shorter than the piece, the whole piece is
//    merged.  The verdict is the paper's "ff_size(mergetype, ...) ==
//    extent", exact, at a cost independent of the window's block count.
//  * analyze_tuple_domain — list engine: the same union over the
//    received absolute-offset ol-lists.  Each sender's tuples arrive
//    sorted, so the union is a k-way frontier sweep over the senders'
//    runs — linear in the tuples visited, no per-window sort.
//
// Verdicts are memoized in a small MergeCache keyed by (view epoch,
// domain, window size, access ranges) so repeated timestep collectives
// over an unchanged view pay the analysis once.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "dtype/datatype.hpp"
#include "dtype/flatten.hpp"
#include "mpiio/twophase.hpp"

namespace llio::mpiio {

/// One rank's write contribution as seen by the analysis: its (cached)
/// fileview and the stream interval [s_lo, s_hi) it actually accesses.
struct ViewContribution {
  dt::Type filetype;  ///< normalized, navigable filetype
  Off disp = 0;       ///< view displacement (absolute = disp + layout)
  Off s_lo = 0;       ///< first stream byte of the rank's access
  Off s_hi = 0;       ///< one past the last stream byte
};

/// Per-window hole-freeness verdict for one IOP file domain.
struct DomainWindows {
  Off lo = 0;   ///< domain start
  Off hi = 0;   ///< domain end
  Off win = 0;  ///< window size (file buffer size)
  std::vector<std::uint8_t> dense;  ///< one flag per window, in file order
  bool all_dense = false;
  /// Segments the exact union test consumed over all windows: the
  /// analysis' cost class (one period per window piece on the listless
  /// path, every segment of an undecided window on the list path).
  Off segments_merged = 0;

  /// Verdict for the window starting at `win_lo` (a domain-window
  /// boundary: lo + k * win).
  bool dense_at(Off win_lo) const {
    const std::size_t i = to_size((win_lo - lo) / win);
    return i < dense.size() && dense[i] != 0;
  }

  Off dense_count() const {
    Off n = 0;
    for (std::uint8_t d : dense) n += d;
    return n;
  }
};

/// Listless-path analysis: k-way SegmentCursor merge over one period of
/// the cached fileviews per window piece.  Contributions with
/// s_hi <= s_lo are ignored.
DomainWindows analyze_view_domain(Off dom_lo, Off dom_hi, Off win,
                                  const std::vector<ViewContribution>& contribs);

/// List-path analysis: the same per-window union over received
/// absolute-offset tuple lists (each list sorted and clipped to the
/// domain, as produced by the AP-side clipping).
DomainWindows analyze_tuple_domain(
    Off dom_lo, Off dom_hi, Off win,
    const std::vector<std::span<const dt::OlTuple>>& lists);

/// True when every participating range is a single contiguous file
/// extent (abs_hi - abs_lo == nbytes) and the ranges are pairwise
/// disjoint: the collective write can skip pack+alltoall entirely and
/// each rank writes its own extent directly (deterministically — no two
/// ranks touch the same byte).
bool ranges_dense_disjoint(const std::vector<AccessRange>& ranges);

/// Read-side relaxation: every participating range is one contiguous
/// extent, but overlap between readers is allowed (concurrent reads of
/// the same bytes are harmless) — each rank reads its extent directly
/// and the two-phase exchange is skipped.
bool ranges_dense(const std::vector<AccessRange>& ranges);

/// Small MRU memo for domain verdicts.  Keys carry the full access-range
/// vector: identical ranges under an unchanged view (same epoch) yield
/// identical verdicts, which is exactly the repeated-timestep pattern.
class MergeCache {
 public:
  struct Key {
    std::uint64_t epoch = 0;
    Off dom_lo = 0;
    Off dom_hi = 0;
    Off win = 0;
    std::vector<AccessRange> ranges;
  };

  /// Return the cached verdict for `key`, computing and storing it via
  /// `compute` on a miss.  The reference stays valid until the next get().
  const DomainWindows& get(Key key,
                           const std::function<DomainWindows()>& compute);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kCapacity = 8;
  struct Entry {
    Key key;
    DomainWindows value;
  };
  std::vector<Entry> entries_;  ///< most recently used first
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace llio::mpiio
