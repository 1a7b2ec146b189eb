// Unit tests for the mergeview contiguity analysis (mpiio/mergeview):
// the per-window hole detector over fileviews (period-bounded) and
// ol-lists (run merge), checked against a per-byte coverage oracle, its
// cost class, the dense-disjoint bypass predicate, and the verdict cache.
#include <gtest/gtest.h>

#include "dtype/flatten.hpp"
#include "fotf/navigate.hpp"
#include "io_test_util.hpp"
#include "mpiio/mergeview.hpp"
#include "test_util.hpp"

namespace llio::mpiio {
namespace {

/// Contribution covering exactly the absolute file range [lo, hi).
ViewContribution extent_contrib(Off lo, Off hi) {
  return {dt::contiguous(hi - lo, dt::byte()), lo, 0, hi - lo};
}

TEST(AnalyzeViewDomain, ExactTilingIsDense) {
  // Three ranks of the paper's noncontig pattern tile the file without
  // holes: 8-byte blocks at stride 24, rank r displaced by r*8.
  std::vector<ViewContribution> contribs;
  for (int r = 0; r < 3; ++r)
    contribs.push_back(
        {iotest::noncontig_filetype(4, 8, 3, r), 0, 0, 32});
  const DomainWindows dw = analyze_view_domain(0, 96, 32, contribs);
  ASSERT_EQ(dw.dense.size(), 3u);
  EXPECT_TRUE(dw.all_dense);
  EXPECT_EQ(dw.dense_count(), 3);
  EXPECT_TRUE(dw.dense_at(0));
  EXPECT_TRUE(dw.dense_at(32));
  EXPECT_TRUE(dw.dense_at(64));

  // A window size that does not divide the domain: same verdicts.
  const DomainWindows odd = analyze_view_domain(0, 96, 40, contribs);
  ASSERT_EQ(odd.dense.size(), 3u);  // [0,40) [40,80) [80,96)
  EXPECT_TRUE(odd.all_dense);
}

TEST(AnalyzeViewDomain, MissingRankLeavesEveryWindowHoley) {
  // Only 2 of the 3 interleaved ranks participate: every third block is
  // a hole, so no window is dense.
  std::vector<ViewContribution> contribs;
  for (int r = 0; r < 2; ++r)
    contribs.push_back(
        {iotest::noncontig_filetype(4, 8, 3, r), 0, 0, 32});
  const DomainWindows dw = analyze_view_domain(0, 96, 32, contribs);
  EXPECT_FALSE(dw.all_dense);
  EXPECT_EQ(dw.dense_count(), 0);
}

TEST(AnalyzeViewDomain, OneByteHoleAtWindowBoundary) {
  // Union covers [0, 64) except byte 32 — the first byte of window 1.
  const std::vector<ViewContribution> contribs = {
      extent_contrib(0, 32),
      extent_contrib(33, 64),
      extent_contrib(10, 30),
  };
  const DomainWindows dw = analyze_view_domain(0, 64, 32, contribs);
  ASSERT_EQ(dw.dense.size(), 2u);
  EXPECT_TRUE(dw.dense_at(0));
  EXPECT_FALSE(dw.dense_at(32));
  EXPECT_FALSE(dw.all_dense);
}

TEST(AnalyzeViewDomain, OverlapDoesNotMaskAHole) {
  // The latent bug of a sum-based coverage test: contributions overlap,
  // so their sizes sum to >= the window size, yet byte 63 is a hole.
  // Only the exact k-way merge catches it.
  const std::vector<ViewContribution> contribs = {
      extent_contrib(32, 48),
      extent_contrib(48, 63),
      extent_contrib(40, 56),
  };
  const DomainWindows dw = analyze_view_domain(32, 64, 32, contribs);
  ASSERT_EQ(dw.dense.size(), 1u);
  EXPECT_FALSE(dw.dense_at(32));

  // Plugging the hole flips the verdict.
  auto plugged = contribs;
  plugged.push_back(extent_contrib(56, 64));
  EXPECT_TRUE(analyze_view_domain(32, 64, 32, plugged).all_dense);
}

TEST(AnalyzeViewDomain, HolesOnlyInOneDomain) {
  // The same global access analyzed per IOP domain: the hole at [96, 100)
  // lives entirely in the second domain and must not leak into the first.
  const std::vector<ViewContribution> contribs = {
      extent_contrib(0, 96),
      extent_contrib(100, 128),
  };
  const DomainWindows d0 = analyze_view_domain(0, 64, 32, contribs);
  EXPECT_TRUE(d0.all_dense);
  const DomainWindows d1 = analyze_view_domain(64, 128, 32, contribs);
  ASSERT_EQ(d1.dense.size(), 2u);
  EXPECT_TRUE(d1.dense_at(64));
  EXPECT_FALSE(d1.dense_at(96));
}

TEST(AnalyzeViewDomain, AccessRangeClampsTheView) {
  // The fileview alone would tile the domain, but the rank only accesses
  // the first 16 stream bytes: the tail windows are holey.
  const std::vector<ViewContribution> contribs = {
      {dt::contiguous(64, dt::byte()), 0, 0, 16},
  };
  const DomainWindows dw = analyze_view_domain(0, 64, 16, contribs);
  ASSERT_EQ(dw.dense.size(), 4u);
  EXPECT_TRUE(dw.dense_at(0));
  EXPECT_FALSE(dw.dense_at(16));
  EXPECT_FALSE(dw.dense_at(32));
  EXPECT_FALSE(dw.dense_at(48));
}

TEST(AnalyzeViewDomain, NonParticipantsAreIgnored) {
  std::vector<ViewContribution> contribs = {
      extent_contrib(0, 64),
      {dt::contiguous(64, dt::byte()), 0, 5, 5},  // s_hi == s_lo
  };
  const DomainWindows dw = analyze_view_domain(0, 64, 32, contribs);
  EXPECT_TRUE(dw.all_dense);
}

TEST(AnalyzeTupleDomain, DenseAndHoleyUnions) {
  using dt::OlTuple;
  const std::vector<OlTuple> a = {{0, 16}, {32, 16}};
  const std::vector<OlTuple> b = {{16, 16}, {48, 15}};  // byte 63 missing
  const std::vector<OlTuple> overlap = {{40, 16}};      // sum >= size anyway
  std::vector<std::span<const OlTuple>> lists = {a, b, overlap};
  const DomainWindows dw = analyze_tuple_domain(0, 64, 32, lists);
  ASSERT_EQ(dw.dense.size(), 2u);
  EXPECT_TRUE(dw.dense_at(0));
  EXPECT_FALSE(dw.dense_at(32));

  const std::vector<OlTuple> plug = {{63, 1}};
  std::vector<std::span<const OlTuple>> plugged = {a, b, overlap, plug};
  EXPECT_TRUE(analyze_tuple_domain(0, 64, 32, plugged).all_dense);
}

TEST(AnalyzeTupleDomain, TuplesStraddlingWindowsAreSplit) {
  using dt::OlTuple;
  const std::vector<OlTuple> a = {{0, 50}};  // crosses the window edge
  const std::vector<OlTuple> b = {{50, 14}};
  std::vector<std::span<const OlTuple>> lists = {a, b};
  const DomainWindows dw = analyze_tuple_domain(0, 64, 32, lists);
  EXPECT_TRUE(dw.all_dense);
}

// ---- Per-byte coverage oracle ---------------------------------------------

using testutil::Rng;
using testutil::rnd;

/// Absolute file segments of `c`'s accessed stream bytes, in stream order,
/// clipped to [lo, hi).  Built from the explicit flatten of enough tiled
/// instances, so it shares no navigation code with the analysis.
std::vector<dt::OlTuple> abs_segments(const ViewContribution& c, Off lo,
                                      Off hi) {
  std::vector<dt::OlTuple> out;
  if (c.s_hi <= c.s_lo) return out;
  const Off ninst = ceil_div(c.s_hi, c.filetype->size());
  const dt::OlList list = dt::flatten(dt::contiguous(ninst, c.filetype));
  Off acc = 0;
  for (const dt::OlTuple& t : list.tuples()) {
    const Off s1 = std::max(acc, c.s_lo);
    const Off s2 = std::min(acc + t.len, c.s_hi);
    if (s1 < s2) {
      const Off a = std::max(lo, c.disp + t.off + (s1 - acc));
      const Off b = std::min(hi, c.disp + t.off + (s2 - acc));
      if (a < b) out.push_back({a, b - a});
    }
    acc += t.len;
  }
  return out;
}

/// Window verdicts from a coverage bitmap of [lo, hi).
std::vector<std::uint8_t> oracle_verdicts(
    Off lo, Off hi, Off win, const std::vector<ViewContribution>& contribs) {
  std::vector<std::uint8_t> cov(to_size(hi - lo), 0);
  for (const ViewContribution& c : contribs)
    for (const dt::OlTuple& t : abs_segments(c, lo, hi))
      std::fill_n(cov.begin() + (t.off - lo), t.len, std::uint8_t{1});
  std::vector<std::uint8_t> out;
  for (Off w = lo; w < hi; w += win)
    out.push_back(std::all_of(cov.begin() + (w - lo),
                              cov.begin() + (std::min(hi, w + win) - lo),
                              [](std::uint8_t b) { return b != 0; })
                      ? 1
                      : 0);
  return out;
}

/// Random accessed stream interval within [0, s_max): often all of it,
/// often starting or ending mid-period, sometimes empty (a zero-byte
/// participant).
std::pair<Off, Off> random_access(Rng& rng, Off s_max) {
  switch (rnd(rng, 0, 5)) {
    case 0: {
      const Off s = rnd(rng, 0, s_max);
      return {s, s};
    }
    case 1:
      return {rnd(rng, 0, s_max / 2), s_max};
    case 2:
      return {0, rnd(rng, 1, s_max)};
    case 3: {
      const Off a = rnd(rng, 0, s_max - 1);
      return {a, rnd(rng, a + 1, s_max)};
    }
    default:
      return {0, s_max};
  }
}

/// Ranks whose patterns partition one base period E (so most windows are
/// dense), each repeating its blocks over m_r periods (extents E, 2E, 3E:
/// lcm up to 6E) and padded with a random LB; perturbed by a dropped block
/// (hole) or a block given to two ranks (overlap); a random common
/// displacement, mostly not a multiple of the extents.
std::vector<ViewContribution> tiling_scenario(Rng& rng, Off span) {
  const Off base = rnd(rng, 1, rnd(rng, 0, 1) ? 8 : 40);
  const int k = static_cast<int>(rnd(rng, 1, 4));
  struct Block {
    Off off, len;
    int owner;
  };
  std::vector<Block> blocks;
  for (Off at = 0; at < base;) {
    const Off len = rnd(rng, 1, std::min<Off>(6, base - at));
    blocks.push_back({at, len, static_cast<int>(rnd(rng, 0, k - 1))});
    at += len;
  }
  switch (rnd(rng, 0, 3)) {
    case 0:
      blocks.erase(blocks.begin() + rnd(rng, 0, Off(blocks.size()) - 1));
      break;
    case 1: {
      if (k == 1) break;
      Block extra = blocks[to_size(rnd(rng, 0, Off(blocks.size()) - 1))];
      extra.owner = (extra.owner + static_cast<int>(rnd(rng, 1, k - 1))) % k;
      blocks.push_back(extra);
      break;
    }
    default:
      break;
  }
  const Off disp = rnd(rng, 0, 3 * base + 5);
  std::vector<ViewContribution> out;
  for (int r = 0; r < k; ++r) {
    const Off reps = rnd(rng, 1, 3);
    std::vector<Off> bls, ds;
    for (Off j = 0; j < reps; ++j)
      for (const Block& b : blocks)
        if (b.owner == r) {
          bls.push_back(b.len);
          ds.push_back(j * base + b.off);
        }
    if (bls.empty()) continue;
    // hindexed needs increasing displacements within one instance.
    std::vector<std::size_t> order(bls.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ds[a] < ds[b]; });
    std::vector<Off> sb, sd;
    for (std::size_t i : order) {
      sb.push_back(bls[i]);
      sd.push_back(ds[i]);
    }
    const dt::Type raw = dt::hindexed(sb, sd, dt::byte());
    const dt::Type ft =
        dt::resized(raw, rnd(rng, 0, raw->true_lb()), reps * base);
    const Off s_max = ft->size() * (ceil_div(span, reps * base) + 1);
    const auto [s_lo, s_hi] = random_access(rng, s_max);
    out.push_back({ft, disp, s_lo, s_hi});
  }
  // A dense filler with a short extent whose access ends mid-domain: the
  // byte sum then passes while the bytes past its end may hold holes.
  if (rnd(rng, 0, 2) == 0) {
    const dt::Type filler = dt::contiguous(rnd(rng, 1, 4), dt::byte());
    const auto [s_lo, s_hi] = random_access(rng, span);
    out.push_back({filler, rnd(rng, 0, 9), s_lo, s_hi});
  }
  return out;
}

/// The paper's interleaved vector pattern (Sblock, Nblock random), with
/// an optional extra LB/UB pad and a per-rank displacement jitter.
std::vector<ViewContribution> vector_scenario(Rng& rng, Off span) {
  const int k = static_cast<int>(rnd(rng, 1, 4));
  const Off sblock = rnd(rng, 1, 6);
  const Off nblock = rnd(rng, 1, 5);
  const Off disp = rnd(rng, 0, 50);
  const bool jitter = rnd(rng, 0, 3) == 0;
  std::vector<ViewContribution> out;
  for (int r = 0; r < k; ++r) {
    dt::Type ft = iotest::noncontig_filetype(nblock, sblock, k, r);
    if (rnd(rng, 0, 1)) {
      const Off pad = rnd(rng, 1, 7);
      ft = dt::resized(ft, 0, ft->extent() + pad);  // UB pad: holes
    }
    const Off s_max = ft->size() * (ceil_div(span, ft->extent()) + 1);
    const auto [s_lo, s_hi] = random_access(rng, s_max);
    out.push_back({ft, disp + (jitter ? rnd(rng, 0, 3) : 0), s_lo, s_hi});
  }
  return out;
}

/// Nearly dense patterns with small coprime extents: one hole byte per
/// period each, so the union's holes recur at the lcm (up to 1001), often
/// longer than the window — the whole-piece fallback.
std::vector<ViewContribution> coprime_scenario(Rng& rng, Off span) {
  static constexpr Off kExt[] = {3, 5, 7, 11, 13};
  std::vector<Off> exts(std::begin(kExt), std::end(kExt));
  std::shuffle(exts.begin(), exts.end(), rng);
  const std::size_t k = to_size(rnd(rng, 2, 3));
  std::vector<ViewContribution> out;
  for (std::size_t r = 0; r < k; ++r) {
    const Off e = exts[r];
    const dt::Type ft =
        dt::resized(dt::hvector(1, e - 1, e, dt::byte()), 0, e);
    const Off s_max = ft->size() * (ceil_div(span, e) + 1);
    const auto [s_lo, s_hi] = random_access(rng, s_max);
    out.push_back({ft, rnd(rng, 0, 20), s_lo, s_hi});
  }
  return out;
}

/// Three pairwise coprime extents near 1e9: their lcm overflows Off.  Each
/// rank's first instance is a run of bytes near offset 0.
std::vector<ViewContribution> overflow_scenario(Rng& rng, Off /*span*/) {
  static constexpr Off kExt[] = {1000000007, 998244353, 1000000009};
  std::vector<ViewContribution> out;
  for (const Off e : kExt) {
    const Off len = rnd(rng, 1, 300);
    const Off bl[] = {len};
    const Off ds[] = {rnd(rng, 0, 40)};
    const dt::Type ft =
        dt::resized(dt::hindexed(bl, ds, dt::byte()), 0, e);
    const auto [s_lo, s_hi] = random_access(rng, 2 * len);
    out.push_back({ft, rnd(rng, 0, 20), s_lo, s_hi});
  }
  return out;
}

void check_against_oracle(std::uint64_t seed, Off lo, Off hi, Off win,
                          const std::vector<ViewContribution>& contribs) {
  for (const ViewContribution& c : contribs)
    ASSERT_TRUE(fotf::file_navigable(c.filetype)) << "seed " << seed;
  const std::vector<std::uint8_t> want = oracle_verdicts(lo, hi, win, contribs);
  const bool want_all =
      !want.empty() && std::all_of(want.begin(), want.end(),
                                   [](std::uint8_t d) { return d != 0; });

  const DomainWindows view = analyze_view_domain(lo, hi, win, contribs);
  EXPECT_EQ(view.dense, want) << "view, seed " << seed;
  EXPECT_EQ(view.all_dense, want_all) << "view, seed " << seed;

  std::vector<std::vector<dt::OlTuple>> owned;
  for (const ViewContribution& c : contribs)
    owned.push_back(abs_segments(c, lo, hi));
  std::vector<std::span<const dt::OlTuple>> lists(owned.begin(), owned.end());
  const DomainWindows tup = analyze_tuple_domain(lo, hi, win, lists);
  EXPECT_EQ(tup.dense, want) << "tuples, seed " << seed;
  EXPECT_EQ(tup.all_dense, want_all) << "tuples, seed " << seed;
}

TEST(MergeviewOracle, RandomMonotoneViewsMatchCoverageBitmap) {
  using Scenario = std::vector<ViewContribution> (*)(Rng&, Off);
  const Scenario scenarios[] = {tiling_scenario, vector_scenario,
                                coprime_scenario, overflow_scenario};
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    const Off span = 600;
    const auto contribs = scenarios[seed % 4](rng, span);
    const Off lo = rnd(rng, 0, span / 2);
    const Off hi = lo + rnd(rng, 0, span / 2);
    // Windows often shorter than a period, often spanning many.
    const Off win = rnd(rng, 0, 1) ? rnd(rng, 1, 64) : rnd(rng, 1, span);
    check_against_oracle(seed, lo, hi, win, contribs);
    if (HasFailure()) return;
  }
}

TEST(MergeviewOracle, LongPiecesReduceToOnePeriod) {
  // Windows spanning many periods of a 2-rank tiling with one rank's
  // access ending mid-window: the period reduction must keep the verdict
  // exact on both sides of the cut.
  std::vector<ViewContribution> contribs;
  for (int r = 0; r < 2; ++r)
    contribs.push_back({iotest::noncontig_filetype(3, 4, 2, r), 5, 0, 12 * 40});
  contribs[1].s_hi = 12 * 25 + 5;  // ends mid-period
  check_against_oracle(0, 5, 5 + 24 * 40, 200, contribs);
  check_against_oracle(0, 0, 24 * 40 + 9, 24 * 40 + 9, contribs);

  // Rank 0 alone covers every other 4 bytes; a dense filler with a 4-byte
  // extent covers [0, 300) only.  The window's first period (24 bytes) is
  // dense and the byte sum reaches the window size, but [300, 480) holds
  // holes: only cutting the window where the filler's access ends finds
  // them.
  const std::vector<ViewContribution> filled = {
      {iotest::noncontig_filetype(3, 4, 2, 0), 0, 0, 240},
      {dt::contiguous(4, dt::byte()), 0, 0, 300},
  };
  const DomainWindows dw = analyze_view_domain(0, 480, 480, filled);
  ASSERT_EQ(dw.dense.size(), 1u);
  EXPECT_FALSE(dw.all_dense);
  check_against_oracle(0, 0, 480, 480, filled);
  check_against_oracle(0, 0, 480, 160, filled);
}

TEST(MergeviewCost, Fig4PatternMergesAtMostTwoPeriodsPerWindow) {
  // The paper's Fig 4 nc-nc pattern: 2 ranks, 8 B blocks, Nblock 1024
  // (16 KiB extent), 4 MiB per rank, analyzed by both IOP domains with a
  // 4 MiB window.  A per-segment merge would take 512K segments per
  // window; the period bound is one extent of both ranks' segments per
  // window piece.
  constexpr Off kSblock = 8, kNblock = 1024, kPerRank = Off{4} << 20;
  constexpr Off kWin = Off{4} << 20;
  constexpr Off kSegsPerPeriod = 2 * kNblock;
  std::vector<ViewContribution> contribs;
  for (int r = 0; r < 2; ++r)
    contribs.push_back(
        {iotest::noncontig_filetype(kNblock, kSblock, 2, r), 0, 0, kPerRank});
  for (const auto& [lo, hi] : {std::pair<Off, Off>{0, kWin},
                               std::pair<Off, Off>{kWin, 2 * kWin},
                               std::pair<Off, Off>{0, 2 * kWin}}) {
    const DomainWindows dw = analyze_view_domain(lo, hi, kWin, contribs);
    EXPECT_TRUE(dw.all_dense);
    const Off nwin = static_cast<Off>(dw.dense.size());
    EXPECT_GT(dw.segments_merged, 0);
    EXPECT_LE(dw.segments_merged, 2 * kSegsPerPeriod * nwin)
        << "domain [" << lo << ", " << hi << ")";
  }
}

TEST(RangesDenseDisjoint, Predicate) {
  auto range = [](Off s_lo, Off n, Off lo, Off hi) {
    return AccessRange{s_lo, n, lo, hi};
  };
  // Dense and disjoint (a gap between extents is fine — it just stays
  // untouched, exactly like the two-phase result).
  EXPECT_TRUE(ranges_dense_disjoint({range(0, 64, 0, 64),
                                     range(0, 64, 64, 128),
                                     range(0, 32, 200, 232)}));
  // Zero-participation ranks are ignored.
  EXPECT_TRUE(ranges_dense_disjoint({range(0, 64, 0, 64),
                                     range(0, 0, 999, 99999)}));
  // A holey restriction (span wider than the byte count) disqualifies.
  EXPECT_FALSE(ranges_dense_disjoint({range(0, 64, 0, 64),
                                      range(0, 32, 64, 128)}));
  // Overlapping extents disqualify (outcome would depend on ordering).
  EXPECT_FALSE(ranges_dense_disjoint({range(0, 64, 0, 64),
                                      range(0, 64, 32, 96)}));
  // Nobody participating: nothing to bypass.
  EXPECT_FALSE(ranges_dense_disjoint({range(0, 0, 0, 0)}));
  EXPECT_FALSE(ranges_dense_disjoint({}));
}

TEST(MergeCacheTest, HitsMissesAndEpochInvalidation) {
  MergeCache cache;
  const std::vector<AccessRange> ranges = {{0, 64, 0, 64}, {64, 64, 64, 128}};
  int computes = 0;
  auto compute = [&] {
    ++computes;
    DomainWindows dw;
    dw.lo = 0;
    dw.hi = 128;
    dw.win = 64;
    dw.dense = {1, 1};
    dw.all_dense = true;
    return dw;
  };
  const auto key = [&](std::uint64_t epoch) {
    return MergeCache::Key{epoch, 0, 128, 64, ranges};
  };

  EXPECT_TRUE(cache.get(key(1), compute).all_dense);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.misses(), 1u);

  // Same epoch + key: served from cache.
  EXPECT_TRUE(cache.get(key(1), compute).all_dense);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 1u);

  // A view change (new epoch) invalidates.
  cache.get(key(2), compute);
  EXPECT_EQ(computes, 2);

  // Different access ranges miss too.
  std::vector<AccessRange> other = ranges;
  other[0].nbytes = 32;
  cache.get(MergeCache::Key{2, 0, 128, 64, other}, compute);
  EXPECT_EQ(computes, 3);
}

TEST(MergeCacheTest, EvictsLeastRecentlyUsed) {
  MergeCache cache;
  auto compute = [] { return DomainWindows{}; };
  // Fill well past capacity with distinct domains …
  for (Off i = 0; i < 12; ++i)
    cache.get(MergeCache::Key{1, i * 100, i * 100 + 50, 50, {}}, compute);
  const auto misses = cache.misses();
  // … the newest key is still cached, the oldest has been evicted.
  cache.get(MergeCache::Key{1, 1100, 1150, 50, {}}, compute);
  EXPECT_EQ(cache.misses(), misses);
  cache.get(MergeCache::Key{1, 0, 50, 50, {}}, compute);
  EXPECT_EQ(cache.misses(), misses + 1);
}

}  // namespace
}  // namespace llio::mpiio
