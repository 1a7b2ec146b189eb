// The two-phase collective I/O method (paper §2.3, §3.2.3): one driver
// for both engines.
//
// Both collective methods run the same algorithm:
//   phase 0  every rank allgathers its AccessRange (Meta); an empty global
//            range is a no-op, and a mergeview-dense one bypasses the
//            exchange with direct per-rank access;
//   phase 1  the global range is split into per-IOP file domains; every
//            AP sends each IOP a descriptor of its access inside that
//            domain, and for writes the data, gathered from user memory;
//   phase 2  each IOP walks its domain window by window
//            (run_window_pipeline): pre-read per the Off/Force/Auto rule
//            and the mergeview verdict, copy between the window and the
//            received data (write) or the replies (read), write back;
//   phase 3  (read) the replies return and the AP unpacks them, or has
//            them scattered straight into user memory.
//
// TwoPhase owns all of that.  The engines differ only in what an AP tells
// an IOP, and each supplies it as a TwoPhaseStrategy with three hooks:
// the descriptor (build and decode), the window fill, and the mergeview
// analysis.  The list-based engine ships absolute-offset ol-lists and
// copies tuple by tuple; the listless engine ships a stream slice [s1, s2)
// and navigates its cached fileviews.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "dtype/datatype.hpp"
#include "simmpi/comm.hpp"

namespace llio::mpiio {

/// One rank's contribution to a collective access.
struct AccessRange {
  Off stream_lo = 0;  ///< view-stream offset of the access start
  Off nbytes = 0;     ///< stream bytes accessed (0 = not participating)
  Off abs_lo = 0;     ///< first absolute file byte touched
  Off abs_hi = 0;     ///< one past the last absolute file byte touched
};

/// Allgather every rank's AccessRange (Meta traffic).
std::vector<AccessRange> exchange_ranges(sim::Comm& comm,
                                         const AccessRange& mine);

/// Global file range [lo, hi) covered by any participant; {0, 0} if none.
struct GlobalRange {
  Off lo = 0;
  Off hi = 0;
  bool any = false;
};
GlobalRange global_range(const std::vector<AccessRange>& ranges);

struct Domain {
  Off lo = 0;
  Off hi = 0;

  bool empty() const { return hi <= lo; }
};

/// Split [g.lo, g.hi) into `niops` aligned, contiguous file domains;
/// domain boundaries snap to multiples of `align` (the file buffer size)
/// relative to g.lo so sieving windows never straddle two IOPs.
std::vector<Domain> partition_domains(const GlobalRange& g, int niops,
                                      Off align);

/// Number of IOP ranks for the given option value (0 = all).
int effective_iops(int io_procs_opt, int comm_size);

/// Descriptor wire helpers: append / read one native Off.  get_off throws
/// Errc::Protocol when the message is too short.
void put_off(ByteVec& out, Off v);
Off get_off(ConstByteSpan data, std::size_t at);

class IoEngine;
struct DomainWindows;
struct WindowPlan;

/// The per-engine part of a two-phase collective: what an AP ships to an
/// IOP and how the IOP uses it.  Made fresh for every operation, so it
/// may keep per-op state.  Hooks run once per op, per IOP (sender) or
/// per window; the per-tuple and per-segment loops stay inside them.
class TwoPhaseStrategy {
 public:
  /// AP side: the descriptor for one IOP domain and the stream slice
  /// [s1, s2) of my access it covers (s2 <= s1: nothing for that IOP).
  struct Slice {
    Off s1 = 0, s2 = 0;
    ByteVec wire;
  };

  /// IOP side: one sender's decoded descriptor.  `data` holds its stream
  /// bytes [s_lo, s_hi): the received payload (write) or the reply being
  /// built (read).  Set by the driver after decode.
  struct Source {
    int rank = 0;
    Off s_lo = 0, s_hi = 0;
    Byte* data = nullptr;
  };

  /// One copy unit of a window: stream bytes [s, s + len) of source
  /// `src` (an index into the sources).  `off` is the absolute file
  /// offset when the descriptor carries it (ol-lists); unused otherwise.
  struct Piece {
    std::size_t src;
    Off s;
    Off len;
    Off off;
  };

  virtual ~TwoPhaseStrategy() = default;

  // Hook 1: the descriptor.

  /// Where a write descriptor travels: as the header of the Data message
  /// (true) or in a Meta exchange of its own ahead of the data (false).
  /// Read descriptors always go alone, as Meta requests.
  virtual bool descriptor_in_data() const = 0;

  /// AP side, once per op: one Slice per domain (domains.size() entries).
  virtual std::vector<Slice> describe(const AccessRange& mine,
                                      const std::vector<Domain>& domains) = 0;

  /// IOP side, once per sender in rank order (the sources are indexed in
  /// decode order): decode the descriptor at the start of `msg`, sent by
  /// a rank whose access is `sender`, into out.s_lo/s_hi; return its
  /// length in bytes.  With `with_payload` the stream bytes
  /// follow the descriptor and must fill the rest of `msg` exactly;
  /// without, the descriptor must fill all of `msg`.  Throws
  /// Errc::Protocol on a malformed message.
  virtual std::size_t decode(ConstByteSpan msg, bool with_payload,
                             const AccessRange& sender, const Domain& dom,
                             Source& out) = 0;

  // Hook 2: the window fill.

  /// Once per window, in window order: append the pieces of every source
  /// that fall into [lo, hi).
  virtual void window(std::span<const Source> srcs, Off lo, Off hi,
                      std::vector<Piece>& out) = 0;

  /// Copy `pieces` into the window buffer `win` (which holds file bytes
  /// [plan.lo, plan.hi)) from the sources (writing) or out of it into
  /// them (reading).
  virtual void fill(std::span<const Source> srcs, const WindowPlan& plan,
                    ByteSpan win, std::span<const Piece> pieces,
                    bool writing) = 0;

  // Hook 3: the mergeview analysis.

  /// Per-window hole-freeness of the IOP's domain for a write, given
  /// every rank's access range; runs after all decodes, and only on a
  /// miss of the engine's MergeCache.
  virtual DomainWindows analyze(const Domain& dom, Off win,
                                const std::vector<AccessRange>& ranges) = 0;
};

/// The shared collective driver: IoEngine::write_at_all (`writing`) and
/// read_at_all for both engines.  A write only reads `buf`.
class TwoPhase {
 public:
  explicit TwoPhase(IoEngine& engine) : e_(engine) {}

  Off run(bool writing, Off stream_lo, void* buf, Off count,
          const dt::Type& mt);

 private:
  using Slice = TwoPhaseStrategy::Slice;
  using Source = TwoPhaseStrategy::Source;
  using Piece = TwoPhaseStrategy::Piece;

  /// Phase 2: walk `dom` window by window through the strategy.
  void run_windows(const Domain& dom, TwoPhaseStrategy& st,
                   std::span<const Source> srcs, bool writing,
                   const DomainWindows* verdict);

  IoEngine& e_;
};

}  // namespace llio::mpiio
