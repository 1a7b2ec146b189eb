// Parallel file-server pool: N server threads, each owning a shard of one
// logical file (the ViPIOS/PVFS server-process architecture the paper's
// client-side approach is contrasted with).
//
// The file's byte space is partitioned into stripe-aligned contiguous
// domains with mpiio::partition_domains — the same splitter the two-phase
// collective uses for IOP file domains — and each server thread serves
// its domain from a private pfs::FileBackend shard store.  Clients talk
// to servers over a sim::World (buffered message passing with the usual
// CommCostModel wall-time charges), so requests, ol-lists, serialized
// fileview trees and data payloads all pay the interconnect.
//
// Three request classes (see wire.hpp):
//   contig — plain pread/pwrite of one extent per round trip,
//   list   — an ol-list plus its data in one message, replayed against
//            the shard with adjacent extents batched into vectored I/O,
//   view   — the serialized filetype tree plus (disp, stream range); the
//            server runs the engine's sieve/direct code over its shard
//            with the listless navigator, i.e. listless I/O over the
//            wire (fileview caching of §3.2.3).
//
// Multi-tenancy: every request carries a session id.  Each server thread
// runs a FairScheduler (session.hpp) instead of serving mailbox order —
// express admin lane, deadline escalation, weighted round-robin across
// sessions — plus a LeaseTable (lease.hpp) for client-cache coherence and
// cross-session aggregation of adjacent queued writes.
//
// Flow control is client-side and per (server, session): a session may
// hold at most `queue_depth` credits per server, bounding what any one
// tenant can pile onto a server while others share it.
//
// Sim clock: one pool-wide tick counter, advanced once per served
// request and jumped forward to the earliest recall deadline when a
// server stalls with parked work.  Lease expiry is defined entirely in
// ticks — wall time is used only for liveness waits, never for protocol
// decisions, so coherence outcomes are machine-speed independent.
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/twophase.hpp"
#include "pfs/file_backend.hpp"
#include "simmpi/comm.hpp"

namespace llio::psrv {

struct PoolConfig {
  int nservers = 4;

  /// Shard-domain alignment (the "stripe"): domain boundaries snap to
  /// multiples of this, like the two-phase file domains snap to the file
  /// buffer size.
  Off stripe = 64 << 10;

  /// Byte space partitioned across the servers.  Offsets beyond it land
  /// on the last (non-empty) server, whose domain is open-ended.
  Off capacity = Off{1} << 30;

  /// Max requests a client may have in flight per server (credit-based).
  int queue_depth = 16;

  /// Concurrent client endpoints (one per in-progress backend operation).
  int client_slots = 16;

  /// Cached fileviews per server before LRU eviction.
  int view_cache_cap = 64;

  /// Recall-callback slots: one per concurrently open *cached* session
  /// (sessions without the client cache never hold leases and need none).
  int session_slots = 8;

  /// Default read-lease lifetime in sim-clock ticks (sessions may ask for
  /// their own term at open).  Generous: the clock ticks once per served
  /// request pool-wide, so heavy cross-traffic ages leases fast.
  std::int64_t lease_term = 1 << 16;

  /// Recall grace in ticks: how long a recalled lease stays valid so a
  /// live client can flush write-back data before it is force-expired.
  /// Sized so concurrent tenants' traffic cannot burn it before a live
  /// flush lands; a dead client costs no extra wall time — a stalled
  /// server jumps the clock straight to the deadline.
  std::int64_t lease_grace = 1024;

  /// Queue-age (in ticks) past which a waiting request escalates into the
  /// deadline lane, bounding worst-case latency for low-weight sessions.
  std::int64_t deadline_ticks = 256;

  /// Max adjacent queued writes coalesced into one shard pwritev
  /// (cross-session write aggregation); 1 disables.
  int agg_max = 8;

  /// Interconnect between clients and servers.
  sim::CommCostModel net;

  /// Name of the interconnect model ("shared-mem", "fast", ...).  Pure
  /// metadata: it becomes the net dimension on obs::Sampler records for
  /// psrv client-side cache hits, which otherwise never touch the wire.
  std::string net_name = "shared-mem";

  /// Shard store factory; default pfs::MemFile.  Wrap in ThrottledFile to
  /// model slow storage behind the servers.
  std::function<pfs::FilePtr(int server)> make_shard;
};

// X(type, member, kind, report name): one line per ServerStats field.
// The struct, operator+=, the servers' live atomic mirror and its
// snapshot(), and the psrv.<report> global counters of the JobReport are
// all generated from this table.  Time fields live in integer-nanosecond
// atomics on the server and are reported in nanoseconds.
#define LLIO_SERVER_STATS(X)                                                 \
  X(std::uint64_t, requests, Count, "requests")                              \
  /* requests served by class: Read/Write, ReadList/WriteList, */           \
  /* ReadView/WriteView, Resize/Sync */                                      \
  X(std::uint64_t, contig_ops, Count, "contig_ops")                          \
  X(std::uint64_t, list_ops, Count, "list_ops")                              \
  X(std::uint64_t, view_ops, Count, "view_ops")                              \
  X(std::uint64_t, admin_ops, Count, "admin_ops")                            \
  /* request message bytes received, response message bytes sent */        \
  X(std::uint64_t, bytes_in, Count, "bytes_in")                              \
  X(std::uint64_t, bytes_out, Count, "bytes_out")                            \
  /* file payload bytes moved, by request class */                           \
  X(std::uint64_t, contig_bytes, Count, "contig_bytes")                      \
  X(std::uint64_t, list_bytes, Count, "list_bytes")                          \
  X(std::uint64_t, view_bytes, Count, "view_bytes")                          \
  /* ol-list entries replayed */                                             \
  X(std::uint64_t, list_extents, Count, "list_extents")                      \
  /* file extents the server issued for view requests: one per sieve */     \
  /* window or direct run (not per navigated segment) */                     \
  X(std::uint64_t, view_segments, Count, "view_segments")                    \
  /* extents merged away by adjacency */                                     \
  X(std::uint64_t, batched_extents, Count, "batched_extents")                \
  X(std::uint64_t, view_installs, Count, "view_installs")                    \
  X(std::uint64_t, view_evictions, Count, "view_evictions")                  \
  /* UnknownView responses (client retries) */                               \
  X(std::uint64_t, view_misses, Count, "view_misses")                        \
  /* multi-tenancy: OpenSession/CloseSession, LeaseAcquire/LeaseRelease, */ \
  /* WriteBack requests served and their payload applied, recall */         \
  /* messages pushed to clients, requests parked on lease conflicts, */     \
  /* write-back extents fenced away, queued writes coalesced by */          \
  /* cross-session aggregation, deadline-lane promotions */                  \
  X(std::uint64_t, session_ops, Count, "session_ops")                        \
  X(std::uint64_t, lease_ops, Count, "lease_ops")                            \
  X(std::uint64_t, writeback_ops, Count, "writeback_ops")                    \
  X(std::uint64_t, writeback_bytes, Count, "writeback_bytes")                \
  X(std::uint64_t, recalls_sent, Count, "recalls_sent")                      \
  X(std::uint64_t, parked, Count, "parked")                                  \
  X(std::uint64_t, fenced_drops, Count, "fenced_drops")                      \
  X(std::uint64_t, agg_writes, Count, "agg_writes")                          \
  X(std::uint64_t, escalations, Count, "escalations")                        \
  /* high-water of in-flight requests *per session* (flow control is per */ \
  /* (server, session); the pool-wide queue is sessions x depth deep) */    \
  X(std::uint64_t, max_queue_depth, Peak, "max_queue_depth")                 \
  /* wall time spent serving, and requests sat queued/parked */              \
  X(double, service_s, Time, "service_ns")                                   \
  X(double, queue_wait_s, Time, "queue_wait_ns")

/// Snapshot of one server's service counters.
struct ServerStats {
#define LLIO_STATS_MEMBER(type, name, kind, report) type name = 0;
  LLIO_SERVER_STATS(LLIO_STATS_MEMBER)
#undef LLIO_STATS_MEMBER

  ServerStats& operator+=(const ServerStats& o) {
#define LLIO_STATS_MERGE(type, name, kind, report) \
  mpiio::merge_stat(mpiio::StatKind::kind, name, o.name);
    LLIO_SERVER_STATS(LLIO_STATS_MERGE)
#undef LLIO_STATS_MERGE
    return *this;
  }
};

/// Call fn(const mpiio::StatField&, value) for every ServerStats field,
/// in table order; the field's report name carries the "psrv." prefix.
template <class Stats, class Fn>
  requires std::same_as<std::remove_const_t<Stats>, ServerStats>
void for_each_field(Stats& s, Fn&& fn) {
#define LLIO_STATS_VISIT(type, name, kind, report) \
  fn(mpiio::StatField{#name, mpiio::StatKind::kind, "psrv." report, nullptr}, \
     s.name);
  LLIO_SERVER_STATS(LLIO_STATS_VISIT)
#undef LLIO_STATS_VISIT
}

/// The live mirror of one ServerStats field: a relaxed atomic that one
/// server thread updates and any thread reads; time fields are kept in
/// integer nanoseconds.
class AtomicStat {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void add_seconds(double s) { add(static_cast<std::uint64_t>(s * 1e9)); }
  void store(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  void raise(std::uint64_t n) {
    std::uint64_t hwm = v_.load(std::memory_order_relaxed);
    while (n > hwm &&
           !v_.compare_exchange_weak(hwm, n, std::memory_order_relaxed)) {
    }
  }
  void load_into(std::uint64_t& out) const {
    out = v_.load(std::memory_order_relaxed);
  }
  void load_into(double& seconds) const {
    seconds = static_cast<double>(v_.load(std::memory_order_relaxed)) / 1e9;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One server's live counters, generated from the same table.
struct AtomicServerStats {
#define LLIO_STATS_ATOMIC(type, name, kind, report) AtomicStat name;
  LLIO_SERVER_STATS(LLIO_STATS_ATOMIC)
#undef LLIO_STATS_ATOMIC

  ServerStats snapshot() const;
};

/// Every field as a psrv.<report> JobReport global counter (time fields in
/// nanoseconds).
std::vector<std::pair<std::string, std::uint64_t>> report_counters(
    const ServerStats& s);

class ServerFile;

class ServerPool {
 public:
  static std::shared_ptr<ServerPool> create(PoolConfig cfg = {});
  ~ServerPool();

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  int nservers() const noexcept { return cfg_.nservers; }
  const PoolConfig& config() const noexcept { return cfg_; }

  /// Swap the client/server interconnect cost model mid-run (see
  /// sim::Comm::set_cost_model); `name` is the new net dimension for
  /// sampler records.  Call with no request in flight.
  void set_net(const sim::CommCostModel& net, const std::string& name);
  std::string net_name() const;

  /// Shard domains, index = server; the last non-empty domain is
  /// open-ended so every file offset has an owner.
  const std::vector<mpiio::Domain>& domains() const noexcept {
    return domains_;
  }

  /// Server owning file byte `off`.
  int owner(Off off) const;

  /// The shard store of server `s` (tests wrap/inspect it).
  const pfs::FilePtr& shard(int s) const;

  /// Logical file size, maintained client-side across all handles.
  Off logical_size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  void grow_size(Off hi);  ///< size = max(size, hi)
  void set_size(Off n) { size_.store(n, std::memory_order_release); }

  ServerStats server_stats(int s) const;
  ServerStats total_server_stats() const;

  /// Total traffic in the client/server world (requests + responses).
  /// Only meaningful while no request is in flight.
  sim::CommStats wire_stats() const { return world_->total_stats(); }
  void reset_wire_stats() { world_->reset_stats(); }

  // ---- client plumbing (used by ServerFile) ----------------------------

  /// Exclusive use of one client mailbox slot for a whole round trip (the
  /// per-slot comm statistics and response matching both require it).
  class Endpoint {
   public:
    Endpoint(Endpoint&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), comm_(std::move(o.comm_)) {
      o.pool_ = nullptr;
    }
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;
    Endpoint& operator=(Endpoint&&) = delete;
    ~Endpoint();

    sim::Comm& comm() { return *comm_; }

   private:
    friend class ServerPool;
    Endpoint(ServerPool* pool, int slot, sim::Comm comm)
        : pool_(pool), slot_(slot), comm_(std::move(comm)) {}

    ServerPool* pool_;
    int slot_;
    std::optional<sim::Comm> comm_;
  };

  /// One queue-depth credit for a (server, session) pair, held from send
  /// to response.
  class Credit {
   public:
    Credit(Credit&& o) noexcept
        : pool_(o.pool_), server_(o.server_), session_(o.session_) {
      o.pool_ = nullptr;
    }
    Credit(const Credit&) = delete;
    Credit& operator=(const Credit&) = delete;
    Credit& operator=(Credit&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        server_ = o.server_;
        session_ = o.session_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    ~Credit() { release(); }

    void release();

   private:
    friend class ServerPool;
    Credit(ServerPool* pool, int server, std::int64_t session)
        : pool_(pool), server_(server), session_(session) {}

    ServerPool* pool_;
    int server_;
    std::int64_t session_ = 0;
  };

  /// Exclusive use of one recall-callback slot for a cached session's
  /// lifetime.  The comm is owned by the session's listener thread; the
  /// slot index is what servers send kTagRecall messages to.
  class SessionSlot {
   public:
    SessionSlot(SessionSlot&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), comm_(std::move(o.comm_)) {
      o.pool_ = nullptr;
    }
    SessionSlot(const SessionSlot&) = delete;
    SessionSlot& operator=(const SessionSlot&) = delete;
    SessionSlot& operator=(SessionSlot&&) = delete;
    ~SessionSlot();

    sim::Comm& comm() { return *comm_; }
    int slot() const noexcept { return slot_; }

   private:
    friend class ServerPool;
    SessionSlot(ServerPool* pool, int slot, sim::Comm comm)
        : pool_(pool), slot_(slot), comm_(std::move(comm)) {}

    ServerPool* pool_;
    int slot_;
    std::optional<sim::Comm> comm_;
  };

  /// A file offset at or above this marks an open-ended (last) domain.
  static constexpr Off kOpenEnd = std::numeric_limits<Off>::max() / 2;

  Endpoint checkout();  ///< blocks until a client slot is free
  SessionSlot checkout_session_slot();  ///< blocks until a slot is free

  /// One queue-depth credit for `session` on server `s`, held from send
  /// to response (blocking / non-blocking).
  Credit acquire_credit(int s, std::int64_t session);
  std::optional<Credit> try_acquire_credit(int s, std::int64_t session);

  /// Allocate a pool-unique fileview id (client side).
  std::int64_t alloc_view_id() {
    return next_view_id_.fetch_add(1, std::memory_order_relaxed);
  }

  std::int64_t alloc_session_id() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t alloc_lease_id() {
    return next_lease_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- sim clock -------------------------------------------------------

  std::int64_t now() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }
  /// Advance by one (a request was served) and return the new time.
  std::int64_t tick() noexcept {
    return clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  /// Jump the clock forward to at least `t` (stalled server with parked
  /// work waiting out a recall grace period).  Never moves it backwards.
  void advance_to(std::int64_t t) noexcept;

 private:
  explicit ServerPool(PoolConfig cfg);

  void serve(int idx);

  struct CreditState;

  PoolConfig cfg_;
  mutable std::mutex net_name_mu_;
  std::string net_name_;
  std::vector<mpiio::Domain> domains_;
  std::unique_ptr<sim::World> world_;
  std::vector<pfs::FilePtr> shards_;
  std::vector<std::unique_ptr<AtomicServerStats>> stats_;
  std::vector<std::unique_ptr<CreditState>> credits_;

  std::atomic<Off> size_{0};
  std::atomic<std::int64_t> next_view_id_{1};
  std::atomic<std::int64_t> next_session_id_{1};
  std::atomic<std::int64_t> next_lease_id_{1};
  std::atomic<std::int64_t> clock_{1};

  std::mutex ep_mu_;
  std::condition_variable ep_cv_;
  std::vector<int> free_slots_;

  std::mutex ss_mu_;
  std::condition_variable ss_cv_;
  std::vector<int> free_session_slots_;

  std::vector<std::thread> threads_;
};

}  // namespace llio::psrv
