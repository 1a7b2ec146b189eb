#include "listio/list_mover.hpp"

#include <cstring>

#include "common/error.hpp"

namespace llio::listio {

namespace {
dt::OlList timed_flatten(const dt::Type& t, mpiio::IoOpStats& stats) {
  dt::OlList list = [&] {
    mpiio::Phase build(stats.list_build_s);
    return dt::flatten(t);
  }();
  stats.list_mem_bytes = std::max(stats.list_mem_bytes, list.memory_bytes());
  return list;
}
}  // namespace

ListMover::ListMover(const void* buf, Off count, const dt::Type& memtype,
                     mpiio::IoOpStats& stats)
    : buf_(const_cast<Byte*>(as_bytes(buf))),
      list_(timed_flatten(memtype, stats)),
      walker_(&list_, memtype->extent()) {
  LLIO_REQUIRE(count >= 0, Errc::InvalidArgument, "ListMover: count < 0");
}

void ListMover::copy_position(Off s) {
  if (next_stream_ != s) walker_.position(s);
}

void ListMover::to_stream(Byte* dst, Off s, Off n) {
  if (n <= 0) return;
  copy_position(s);
  Off done = 0;
  while (done < n) {
    const Off len = std::min(walker_.run_len(), n - done);
    std::memcpy(dst + done, buf_ + walker_.run_mem(), to_size(len));
    walker_.consume(len);
    done += len;
  }
  next_stream_ = s + n;
}

bool ListMover::mem_runs(Off s, Off n, const mpiio::RunBudget& budget,
                         std::vector<ByteSpan>& out) {
  if (n <= 0 || list_.empty()) return false;
  if (list_.block_count() > 1 &&
      walker_.unit_size() / to_off(list_.block_count()) < budget.min_avg_run)
    return false;
  const std::size_t start = out.size();
  copy_position(s);
  Off done = 0;
  while (done < n) {
    const Off len = std::min(walker_.run_len(), n - done);
    Byte* p = buf_ + walker_.run_mem();
    if (out.size() > start && out.back().data() + out.back().size() == p) {
      out.back() = ByteSpan(out.back().data(), out.back().size() + to_size(len));
    } else {
      if (out.size() - start >= budget.max_runs) {
        out.resize(start);
        next_stream_ = -1;  // walker no longer matches next_stream_
        return false;
      }
      out.push_back(ByteSpan(p, to_size(len)));
    }
    walker_.consume(len);
    done += len;
  }
  next_stream_ = s + n;
  return true;
}

void ListMover::from_stream(const Byte* src, Off s, Off n) {
  if (n <= 0) return;
  copy_position(s);
  Off done = 0;
  while (done < n) {
    const Off len = std::min(walker_.run_len(), n - done);
    std::memcpy(buf_ + walker_.run_mem(), src + done, to_size(len));
    walker_.consume(len);
    done += len;
  }
  next_stream_ = s + n;
}

}  // namespace llio::listio
