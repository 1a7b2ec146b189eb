#include "mpiio/io_stats.hpp"

#include <type_traits>

#include "common/format.hpp"

namespace llio::mpiio {

std::string format_stats(const IoOpStats& s) {
  std::string out;
  for_each_field(s, [&](const StatField& f, const auto& v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>)
      out += strprintf("%-24s %14.6f s\n", f.name, v);
    else
      out += strprintf("%-24s %14lld\n", f.name, static_cast<long long>(v));
  });
  return out;
}

}  // namespace llio::mpiio
