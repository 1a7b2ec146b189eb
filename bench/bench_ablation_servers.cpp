// Ablation: request classes against the parallel file-server pool.
//
// A Fig. 6-style collective point (P=4, Nblock=256, Sblock=8B, nc-nc
// write) is replayed over the psrv subsystem under three strategies:
//   two-phase+contig  collective buffering on; aggregators write dense
//                     file-domain windows as plain contig round trips
//                     (the classic two-phase answer: pay the client-side
//                     exchange, keep the servers dumb),
//   client-list       independent writes, sieving off; the client ships
//                     one ol-list message per server (PVFS list I/O),
//   server-view       independent writes over the View request class;
//                     the engine ships the serialized filetype tree once
//                     (fileview caching, §3.2.3) plus dense stream data
//                     — "listless I/O over the wire".
// Each strategy runs under the named interconnect models fast/mid/slow
// (sim::standard_cost_models), applied to BOTH the client world and the
// client<->server wire.  Reported: per-process bandwidth plus wire
// traffic per collective op, split into data and metadata.  Expected
// shape: on fast wires two-phase's extra copy hurts and server-side
// translation wins; as the wire slows, bytes-on-the-wire dominate and
// server-view's metadata edge over client-list (a compact tree instead
// of per-extent ol-lists) widens into the bandwidth lead.
//
// The committed baseline BENCH_servers.json is this bench's output
// filtered with `sed -n 's/^json-schema://p;s/^json-host://p;s/^json://p'`:
// the schema, the host it was measured on, then one row per point.
#include "bench_common.hpp"
#include "psrv/server_file.hpp"

using namespace llio;
using namespace llio::bench;

namespace {

struct Strategy {
  const char* name;
  psrv::RequestClass cls;
  bool collective;
  bool sieve_off;
};

}  // namespace

int main() {
  const Off target = env_off("LLIO_BENCH_TARGET_KB", 128) * 1024;
  const double min_s = env_double("LLIO_BENCH_MIN_SECONDS", 0.1);
  const int nprocs = 4;
  const Strategy strategies[] = {
      {"two-phase+contig", psrv::RequestClass::Contig, true, false},
      {"client-list", psrv::RequestClass::List, false, true},
      {"server-view", psrv::RequestClass::View, false, true},
  };
  std::printf(
      "ablation: nc-nc write, Sblock=8B, Nblock=256, P=%d over a "
      "4-server psrv pool, request class x interconnect\n",
      nprocs);
  Table table({"network", "strategy", "MB/s/proc", "wire KB/op",
               "data KB/op", "meta KB/op", "msgs/op"});
  std::printf(
      "json-schema:{\"bench\":\"string\",\"net\":\"string\","
      "\"strategy\":\"string\",\"request_class\":\"string\","
      "\"collective\":\"bool\",\"mbps_pp\":\"number\","
      "\"wire_bytes_per_op\":\"int\",\"data_bytes_per_op\":\"int\","
      "\"meta_bytes_per_op\":\"int\",\"msgs_per_op\":\"number\","
      "\"repeats\":\"int\"}\n");
  std::printf("json-host:{\"host\":%s}\n", host_json().c_str());
  std::string json;
  for (const auto& net : sim::standard_cost_models()) {
    if (net.first == "shared-mem") continue;  // free wire: nothing to rank
    for (const Strategy& s : strategies) {
      psrv::PoolConfig pc;
      pc.nservers = 4;
      pc.net = net.second;
      auto pool = psrv::ServerPool::create(std::move(pc));

      NoncontigConfig cfg;
      cfg.method = mpiio::Method::Listless;
      cfg.nprocs = nprocs;
      cfg.nblock = 256;
      cfg.sblock = 8;
      cfg.collective = s.collective;
      cfg.write = true;
      cfg.target_bytes_pp = target;
      cfg.min_seconds = min_s;
      cfg.net = net.second;
      if (s.sieve_off) {
        cfg.hints.set("romio_ds_write", "disable");
        cfg.hints.set("romio_ds_read", "disable");
      }
      cfg.make_backend = [&] {
        return psrv::ServerFile::create(pool, s.cls);
      };

      const BenchPoint p = run_noncontig(cfg);
      // Every op in the run (1 warm-up + 1 calibration + repeats) hits
      // the pool identically, so per-op wire cost is the plain average.
      const sim::CommStats wire = pool->wire_stats();
      const auto ops = static_cast<std::uint64_t>(p.repeats) + 2;
      const auto data_op = wire.data_bytes_sent / ops;
      const auto meta_op = wire.meta_bytes_sent / ops;
      table.add_row(
          {net.first, s.name, fmt_mbps(p.mbps_pp()),
           strprintf("%.1f", static_cast<double>(data_op + meta_op) / 1024),
           strprintf("%.1f", static_cast<double>(data_op) / 1024),
           strprintf("%.1f", static_cast<double>(meta_op) / 1024),
           strprintf("%.1f", static_cast<double>(wire.msgs_sent) /
                                 static_cast<double>(ops))});
      json += strprintf(
          "json:{\"bench\":\"ablation_servers\",\"net\":\"%s\","
          "\"strategy\":\"%s\",\"request_class\":\"%s\","
          "\"collective\":%s,\"mbps_pp\":%.3f,"
          "\"wire_bytes_per_op\":%llu,\"data_bytes_per_op\":%llu,"
          "\"meta_bytes_per_op\":%llu,\"msgs_per_op\":%.1f,"
          "\"repeats\":%d}\n",
          net.first.c_str(), s.name, psrv::request_class_name(s.cls),
          s.collective ? "true" : "false", p.mbps_pp(),
          static_cast<unsigned long long>(data_op + meta_op),
          static_cast<unsigned long long>(data_op),
          static_cast<unsigned long long>(meta_op),
          static_cast<double>(wire.msgs_sent) / static_cast<double>(ops),
          p.repeats);
    }
  }
  table.print(
      "request class vs interconnect over the file-server pool "
      "[per-process bandwidth; wire traffic per collective op]");
  std::printf("%s", json.c_str());
  return 0;
}
