// The listless I/O engine (paper §3): fotf navigation through the
// fileview for independent access, and *fileview caching* for collective
// access — each rank's (disp, filetype) is exchanged in compact form
// exactly once, at set_view, so collective operations move only file
// data, never ol-lists.
//
// Collectives run the shared mpiio::TwoPhase driver with this engine's
// strategy: an AP ships each IOP the stream slice [s1, s2) of its access
// (found with file_to_stream), as the header of the data message for
// writes; the IOP finds each window's part of every slice, and scatters
// or gathers it, through the sender's cached fileview.  The mergeview
// analysis (§3.2.4, mpiio/mergeview) runs over the cached fileviews too
// (analyze_view_domain) — the paper's "ff_size(mergetype, ...) ==
// extent" test without ever building the merge struct.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/listless_nav.hpp"
#include "mpiio/engine.hpp"

namespace llio::core {

/// Decode the listless two-phase descriptor [s1][s2] at the start of
/// `msg`, sent by a rank whose access is `sender`.  A read request is the
/// descriptor alone; a write slice (`with_payload`) is followed by exactly
/// s2 - s1 stream bytes.  Throws Errc::Protocol when the message size is
/// not exact, s2 < s1, or [s1, s2) leaves the sender's access.
std::pair<Off, Off> decode_stream_slice(ConstByteSpan msg, bool with_payload,
                                        const mpiio::AccessRange& sender);

class ListlessEngine final : public mpiio::IoEngine {
 public:
  using mpiio::IoEngine::IoEngine;

  void set_view(const mpiio::View& v) override;

 protected:
  mpiio::ViewNav& nav() override { return *nav_; }

  std::unique_ptr<mpiio::StreamMover> make_nc_mover(
      const void* buf, Off count, const dt::Type& mt) override;

  std::unique_ptr<mpiio::TwoPhaseStrategy> two_phase_strategy() override;

  /// Adaptive tuning: re-point pack threads inside the navs built at
  /// set_view (everything else in their PackConfig stays as baked, so
  /// compiled plans survive).
  void on_tuning_changed() override;

 private:
  class Strategy;

  /// Cached remote fileview (fileview caching, §3.2.3).
  struct CachedView {
    Off disp = 0;
    dt::Type filetype;
    std::unique_ptr<ListlessNav> nav;
  };

  std::unique_ptr<ListlessNav> nav_;        ///< my own view
  std::vector<CachedView> cached_;          ///< one per rank, incl. self
};

}  // namespace llio::core
