// Ablation: the ol-list overheads of paper §2.4, measured directly:
//   - explicit flattening cost and memory, O(N_block), vs the O(1) cost
//     and O(tree) size of the compact (cached-fileview) representation;
//   - file positioning: linear ol-list traversal vs O(depth) fotf
//     navigation, as N_block scales;
//   - the inverse search (file offset -> stream bytes below it), both ways.
//
// Output: aligned table + csv: lines (bench_common convention) + json:
// lines, one object per (case, N_block), schema announced in a
// json-schema: line.
//
// Scale knob: LLIO_BENCH_MIN_SECONDS (minimum seconds per point, default
// 0.15).
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "dtype/flatten.hpp"
#include "dtype/serialize.hpp"
#include "fotf/navigate.hpp"
#include "listio/ol_walker.hpp"

using namespace llio;

namespace {

dt::Type vector_type(Off nblock) {
  return dt::resized(dt::hvector(nblock, 8, 16, dt::byte()), 0, 16 * nblock);
}

/// Folds every result so the compiler cannot drop the measured calls.
volatile Off g_sink = 0;

/// Nanoseconds per call of `op`, repeated until `min_seconds` elapsed.
double measure_ns(const std::function<Off()>& op, double min_seconds) {
  g_sink = g_sink + op();  // warm-up
  Off acc = 0;
  long long calls = 0;
  WallTimer t;
  for (long long batch = 1;; batch = std::min(batch * 2, 1LL << 20)) {
    for (long long i = 0; i < batch; ++i) acc += op();
    calls += batch;
    if (t.seconds() >= min_seconds) break;
  }
  const double total = t.seconds();
  g_sink = g_sink + acc;
  return total * 1e9 / static_cast<double>(calls);
}

}  // namespace

int main() {
  const double min_seconds = bench::env_double("LLIO_BENCH_MIN_SECONDS", 0.15);

  bench::Table table({"case", "nblock", "ns/op", "bytes"});
  std::printf(
      "json-schema:{\"bench\":\"string\",\"case\":\"string\","
      "\"nblock\":\"int\",\"ns_per_op\":\"number\",\"bytes\":\"int\"}\n");
  std::string json;
  auto row = [&](const char* name, Off nblock, double ns, Off bytes) {
    table.add_row({name, strprintf("%lld", (long long)nblock),
                   strprintf("%.1f", ns), strprintf("%lld", (long long)bytes)});
    json += strprintf(
        "json:{\"bench\":\"ablation_olist\",\"case\":\"%s\",\"nblock\":%lld,"
        "\"ns_per_op\":%.3f,\"bytes\":%lld}\n",
        name, (long long)nblock, ns, (long long)bytes);
  };

  for (const Off nblock : {Off{256}, Off{4096}, Off{65536}}) {
    const dt::Type t = vector_type(nblock);
    const Off total = t->size();
    const Off span = t->extent();
    const dt::OlList list = dt::flatten(t);
    listio::OlWalker walker(&list, t->extent());

    row("explicit_flatten", nblock,
        measure_ns([&] { return to_off(dt::flatten(t).tuples().size()); },
                   min_seconds),
        list.memory_bytes());
    row("compact_serialize", nblock,
        measure_ns([&] { return to_off(dt::serialize(t).size()); },
                   min_seconds),
        to_off(dt::serialize(t).size()));

    // ROMIO's cost: position the file pointer at a random stream offset
    // by scanning the ol-list (O(N_block/2) on average) ...
    Off s = 0;
    row("list_positioning", nblock, measure_ns([&] {
          s = (s * 1103515245 + 12345) % total;
          walker.position(s);
          return walker.mem();
        }, min_seconds),
        0);
    // ... against O(depth) arithmetic, independent of N_block.
    s = 0;
    row("fotf_positioning", nblock, measure_ns([&] {
          s = (s * 1103515245 + 12345) % total;
          return fotf::mem_start(t, s);
        }, min_seconds),
        0);

    Off x = 0;
    row("list_inverse_search", nblock, measure_ns([&] {
          x = (x * 69069 + 1) % span;
          return walker.bytes_below(x);
        }, min_seconds),
        0);
    x = 0;
    row("fotf_inverse_search", nblock, measure_ns([&] {
          x = (x * 69069 + 1) % span;
          return fotf::data_below(t, x);
        }, min_seconds),
        0);
  }

  table.print("ablation: ol-list vs compact view costs");
  std::printf("%s", json.c_str());
  return 0;
}
