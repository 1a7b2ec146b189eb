// MPI_Type_create_darray: distributed-array datatypes.
//
// Construction proceeds dimension by dimension from the fastest-varying
// one (Fortran order; C order is normalized by reversing the dimension
// arrays after computing the row-major process coordinates).  At each
// dimension the local index selection is either
//   * the whole range (Distrib::None),
//   * one block [rank*b, rank*b + mysize)   (Distrib::Block), or
//   * blocks of b dealt round-robin          (Distrib::Cyclic),
// and is realized over the previous dimensions' type with explicit byte
// strides (hvector with blocklen 1), so intermediate extents never
// interfere.  The final type is placed at its global offset and resized
// to the full array extent, exactly like subarray.
#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "dtype/datatype.hpp"

namespace llio::dt {

namespace {

/// `len` consecutive dim-d rows starting at row `start`, rows `slab`
/// bytes apart, each row holding `inner`.
Type row_run(Off len, Off slab, const Type& inner) {
  return hvector(len, 1, slab, inner);
}

Type place(const Type& t, Off disp_bytes) {
  const Off bls[] = {1};
  const Off ds[] = {disp_bytes};
  return hindexed(bls, ds, t);
}

}  // namespace

Type darray(int nprocs, int rank, std::span<const Off> gsizes,
            std::span<const Distrib> distribs, std::span<const Off> dargs,
            std::span<const Off> psizes, Order order, const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "darray: null etype");
  const std::size_t nd = gsizes.size();
  LLIO_REQUIRE(nd >= 1 && distribs.size() == nd && dargs.size() == nd &&
                   psizes.size() == nd,
               Errc::InvalidDatatype, "darray: dimension mismatch");
  LLIO_REQUIRE(nprocs >= 1 && rank >= 0 && rank < nprocs,
               Errc::InvalidDatatype, "darray: bad rank/nprocs");
  Off grid = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    LLIO_REQUIRE(gsizes[d] >= 1 && psizes[d] >= 1, Errc::InvalidDatatype,
                 "darray: bad gsize/psize");
    LLIO_REQUIRE(distribs[d] != Distrib::None || psizes[d] == 1,
                 Errc::InvalidDatatype,
                 "darray: Distrib::None requires psize == 1");
    grid = checked_mul(grid, psizes[d]);
  }
  LLIO_REQUIRE(grid == nprocs, Errc::InvalidDatatype,
               "darray: process grid does not match nprocs");

  // Row-major process coordinates over the original dimension order.
  std::vector<Off> coords(nd);
  {
    int tmp = rank;
    for (std::size_t i = nd; i-- > 0;) {
      coords[i] = tmp % static_cast<int>(psizes[i]);
      tmp /= static_cast<int>(psizes[i]);
    }
  }

  // Normalize to Fortran order (dimension 0 fastest).
  std::vector<Off> gs(gsizes.begin(), gsizes.end());
  std::vector<Distrib> dist(distribs.begin(), distribs.end());
  std::vector<Off> darg(dargs.begin(), dargs.end());
  std::vector<Off> ps(psizes.begin(), psizes.end());
  if (order == Order::C) {
    std::reverse(gs.begin(), gs.end());
    std::reverse(dist.begin(), dist.end());
    std::reverse(darg.begin(), darg.end());
    std::reverse(ps.begin(), ps.end());
    std::reverse(coords.begin(), coords.end());
  }

  const Off ext = t->extent();
  Off full_ext = ext;  // extent of the whole global array
  for (std::size_t d = 0; d < nd; ++d)
    full_ext = checked_mul(full_ext, gs[d]);
  Type cur = t;
  Off disp = 0;      // global byte offset of the local piece's origin
  Off slab = ext;    // bytes per full row of the current dimension
  bool empty = false;

  for (std::size_t d = 0; d < nd; ++d) {
    const Off g = gs[d];
    const Off p = ps[d];
    const Off r = coords[d];
    switch (dist[d]) {
      case Distrib::None: {
        cur = row_run(g, slab, cur);
        break;
      }
      case Distrib::Block: {
        Off b = darg[d];
        if (b == kDfltDarg) b = ceil_div(g, p);
        LLIO_REQUIRE(b >= 1 && checked_mul(b, p) >= g, Errc::InvalidDatatype,
                     "darray: block darg too small for the dimension");
        const Off mysize = std::clamp<Off>(g - b * r, 0, b);
        if (mysize == 0) {
          empty = true;
        } else {
          cur = row_run(mysize, slab, cur);
          disp = checked_add(disp, checked_mul(checked_mul(b, r), slab));
        }
        break;
      }
      case Distrib::Cyclic: {
        Off b = darg[d];
        if (b == kDfltDarg) b = 1;
        LLIO_REQUIRE(b >= 1, Errc::InvalidDatatype,
                     "darray: cyclic darg must be >= 1");
        const Off st = checked_mul(r, b);  // first row this rank owns here
        if (st >= g) {
          empty = true;
          break;
        }
        const Off span = g - st;              // rows from st to the end
        const Off cycle = checked_mul(p, b);  // rows per full deal round
        const Off full = span / cycle;        // complete blocks of b
        const Off rem = std::min(span % cycle, b);  // trailing partial block
        const Type block = row_run(b, slab, cur);
        const Off stride = checked_mul(cycle, slab);
        Type piece;
        if (rem == 0) {
          piece = hvector(full, 1, stride, block);
        } else if (full == 0) {
          piece = row_run(rem, slab, cur);
        } else {
          const Type tail = row_run(rem, slab, cur);
          const Off bls[] = {1, 1};
          const Off ds[] = {0, checked_mul(full, stride)};
          const Type kids[] = {hvector(full, 1, stride, block), tail};
          piece = struct_(bls, ds, kids);
        }
        cur = piece;
        disp = checked_add(disp, checked_mul(st, slab));
        break;
      }
    }
    slab = checked_mul(slab, g);
    if (empty) break;
  }

  if (empty) return resized(contiguous(0, t), 0, full_ext);
  return resized(place(cur, disp), 0, full_ext);
}

}  // namespace llio::dt
