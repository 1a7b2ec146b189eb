// The list-based I/O engine: a faithful model of ROMIO's non-contiguous
// access handling (paper §2).
//
//  * set_view explicitly flattens the filetype into an ol-list and stores
//    it (§2.1).
//  * independent access uses the shared data-sieving skeleton with linear
//    ol-list navigation and per-tuple copies (§2.2).
//  * collective access runs the shared mpiio::TwoPhase driver with this
//    engine's strategy: every AP expands its fileview over each IOP's
//    file domain into a fresh absolute-offset ol-list of N_coll tuples
//    and ships it in a Meta exchange ahead of the data; IOPs merge the
//    received lists per file block to test write coverage
//    (analyze_tuple_domain) and copy tuple by tuple (§2.3).  No fileview
//    caching: lists are rebuilt and re-sent on every collective call.
#pragma once

#include <memory>
#include <vector>

#include "dtype/flatten.hpp"
#include "listio/ol_nav.hpp"
#include "mpiio/engine.hpp"
#include "mpiio/twophase.hpp"

namespace llio::listio {

/// A decoded two-phase ol-list descriptor: the sender's stream slice
/// [s_lo, s_hi) and the absolute file tuples it maps to.
struct OlDescriptor {
  Off s_lo = 0, s_hi = 0;
  std::vector<dt::OlTuple> tuples;
};

/// Decode the wire form [s_lo][s_hi][n][n x (off, len)] sent by a rank
/// whose access is `sender` to the IOP owning `dom`.  Throws
/// Errc::Protocol unless the message is exactly 24 + 16n bytes, [s_lo,
/// s_hi) lies inside the sender's access, and the tuples are non-empty,
/// ascending, disjoint, inside `dom`, and sum to s_hi - s_lo.
OlDescriptor decode_ol_list(ConstByteSpan msg,
                            const mpiio::AccessRange& sender,
                            const mpiio::Domain& dom);

class ListEngine final : public mpiio::IoEngine {
 public:
  using mpiio::IoEngine::IoEngine;

  void set_view(const mpiio::View& v) override;

  /// Time spent flattening the filetype at set_view (paper §2.4 cost).
  double view_flatten_seconds() const { return view_flatten_s_; }

  /// Stored ol-list memory for the current fileview.
  Off view_list_bytes() const { return ft_list_.memory_bytes(); }

 protected:
  mpiio::ViewNav& nav() override { return *nav_; }

  std::unique_ptr<mpiio::StreamMover> make_nc_mover(
      const void* buf, Off count, const dt::Type& mt) override;

  std::unique_ptr<mpiio::TwoPhaseStrategy> two_phase_strategy() override;

 private:
  class Strategy;

  dt::OlList ft_list_;  ///< stored flattened filetype (one instance)
  std::unique_ptr<OlViewNav> nav_;
  double view_flatten_s_ = 0;
};

}  // namespace llio::listio
