#include "dtype/datatype.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace llio::dt {

Off checked_add(Off a, Off b) {
  Off r = 0;
  LLIO_REQUIRE(!__builtin_add_overflow(a, b, &r), Errc::InvalidDatatype,
               "datatype: size or bounds overflow 64 bits");
  return r;
}

Off checked_mul(Off a, Off b) {
  Off r = 0;
  LLIO_REQUIRE(!__builtin_mul_overflow(a, b, &r), Errc::InvalidDatatype,
               "datatype: size or bounds overflow 64 bits");
  return r;
}

namespace {

/// Summary of the maximal contiguous segments of a typemap region, used to
/// compute block_count / contiguity / monotonicity compositionally.
struct SegInfo {
  bool empty = true;
  Off nseg = 0;
  Off first_off = 0, first_len = 0;
  Off last_off = 0, last_len = 0;
  Off min_off = 0;  ///< true lower bound of data
  Off max_end = 0;  ///< true upper bound of data
  bool monotone = true;

  Off first_end() const { return first_off + first_len; }
  Off last_end() const { return last_off + last_len; }
};

SegInfo single_segment(Off off, Off len) {
  if (len <= 0) return {};
  SegInfo s;
  s.empty = false;
  s.nseg = 1;
  s.first_off = s.last_off = off;
  s.first_len = s.last_len = len;
  s.min_off = off;
  s.max_end = checked_add(off, len);
  return s;
}

SegInfo shift(SegInfo s, Off d) {
  if (s.empty) return s;
  s.first_off = checked_add(s.first_off, d);
  s.last_off = checked_add(s.last_off, d);
  s.min_off = checked_add(s.min_off, d);
  s.max_end = checked_add(s.max_end, d);
  return s;
}

/// `count` copies of `inner`, copy i shifted by i*spacing.
SegInfo repeat(const SegInfo& inner, Off count, Off spacing) {
  if (inner.empty || count <= 0) return {};
  if (count == 1) return inner;
  const bool merge = inner.last_end() == checked_add(inner.first_off, spacing);
  SegInfo r;
  r.empty = false;
  r.monotone =
      inner.monotone && inner.max_end <= checked_add(inner.min_off, spacing);
  const Off total_shift = checked_mul(count - 1, spacing);
  r.min_off = checked_add(inner.min_off, std::min<Off>(0, total_shift));
  r.max_end = checked_add(inner.max_end, std::max<Off>(0, total_shift));
  if (merge && inner.nseg == 1) {
    // The single segment tiles seamlessly: one big segment.
    r.nseg = 1;
    r.first_off = r.last_off = inner.first_off;
    r.first_len = r.last_len = checked_add(inner.first_len, total_shift);
    return r;
  }
  r.nseg = checked_mul(count, inner.nseg) - (merge ? count - 1 : 0);
  r.first_off = inner.first_off;
  r.first_len = inner.first_len;
  r.last_off = checked_add(inner.last_off, total_shift);
  r.last_len = inner.last_len;
  return r;
}

/// Concatenation in typemap order (b's offsets already absolute).
SegInfo concat(const SegInfo& a, const SegInfo& b) {
  if (a.empty) return b;
  if (b.empty) return a;
  const bool merge = a.last_end() == b.first_off;
  SegInfo r;
  r.empty = false;
  r.nseg = a.nseg + b.nseg - (merge ? 1 : 0);
  r.monotone = a.monotone && b.monotone && a.max_end <= b.min_off;
  r.min_off = std::min(a.min_off, b.min_off);
  r.max_end = std::max(a.max_end, b.max_end);
  if (merge && a.nseg == 1 && b.nseg == 1) {
    r.first_off = r.last_off = a.first_off;
    r.first_len = r.last_len = a.first_len + b.first_len;
    return r;
  }
  if (merge && a.nseg == 1) {
    r.first_off = a.first_off;
    r.first_len = a.first_len + b.first_len;
  } else {
    r.first_off = a.first_off;
    r.first_len = a.first_len;
  }
  if (merge && b.nseg == 1) {
    r.last_off = a.last_off;
    r.last_len = a.last_len + b.first_len;
  } else {
    r.last_off = b.last_off;
    r.last_len = b.last_len;
  }
  return r;
}

}  // namespace

/// Internal factory with access to Node's private fields.
class Builder {
 public:
  static SegInfo seg(const Node& n) {
    SegInfo s;
    if (n.size_ == 0) return s;
    s.empty = false;
    s.nseg = n.nblocks_;
    s.first_off = n.first_off_;
    s.first_len = n.first_len_;
    s.last_off = n.last_off_;
    s.last_len = n.last_len_;
    s.min_off = n.true_lb_;
    s.max_end = n.true_ub_;
    s.monotone = n.monotone_;
    return s;
  }

  static void store_seg(Node& n, const SegInfo& s) {
    n.nblocks_ = s.nseg;
    n.first_off_ = s.first_off;
    n.first_len_ = s.first_len;
    n.last_off_ = s.last_off;
    n.last_len_ = s.last_len;
    n.true_lb_ = s.min_off;
    n.true_ub_ = s.max_end;
    n.monotone_ = s.monotone;
    Off extent = 0;
    LLIO_REQUIRE(!__builtin_sub_overflow(n.ub_, n.lb_, &extent),
                 Errc::InvalidDatatype, "datatype: extent overflows 64 bits");
    n.contig_ = s.nseg <= 1 && extent == n.size_;
  }

  static Type make_basic(BasicId id) {
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Basic;
    n->basic_ = id;
    n->size_ = basic_size(id);
    n->lb_ = 0;
    n->ub_ = n->size_;
    n->depth_ = 1;
    store_seg(*n, single_segment(0, n->size_));
    return n;
  }

  static Type make_contiguous(Off count, const Type& t) {
    LLIO_REQUIRE(count >= 0, Errc::InvalidDatatype, "contiguous: count < 0");
    LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "contiguous: null child");
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Contiguous;
    n->count_ = count;
    n->child_ = t;
    n->size_ = checked_mul(count, t->size());
    const Off ext = t->extent();
    const Off span = count > 0 ? checked_mul(count - 1, ext) : 0;
    n->lb_ = checked_add(t->lb(), std::min<Off>(0, span));
    n->ub_ =
        count > 0 ? checked_add(t->ub(), std::max<Off>(0, span)) : t->lb();
    n->depth_ = 1 + t->depth();
    store_seg(*n, repeat(seg(*t), count, ext));
    return n;
  }

  static Type make_vector(Off count, Off blocklen, Off stride_bytes,
                          const Type& t) {
    LLIO_REQUIRE(count >= 0 && blocklen >= 0, Errc::InvalidDatatype,
                 "vector: negative count or blocklen");
    LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "vector: null child");
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Vector;
    n->count_ = count;
    n->blocklen_ = blocklen;
    n->stride_ = stride_bytes;
    n->child_ = t;
    n->size_ = checked_mul(checked_mul(count, blocklen), t->size());
    const Off ext = t->extent();
    if (count > 0 && blocklen > 0) {
      const Off inner_span = checked_mul(blocklen - 1, ext);
      const Off outer_span = checked_mul(count - 1, stride_bytes);
      n->lb_ = checked_add(checked_add(t->lb(), std::min<Off>(0, inner_span)),
                           std::min<Off>(0, outer_span));
      n->ub_ = checked_add(checked_add(t->ub(), std::max<Off>(0, inner_span)),
                           std::max<Off>(0, outer_span));
    } else {
      n->lb_ = t->lb();
      n->ub_ = t->lb();
    }
    n->depth_ = 1 + t->depth();
    SegInfo block = repeat(seg(*t), blocklen, ext);
    store_seg(*n, repeat(block, count, stride_bytes));
    return n;
  }

  static Type make_indexed(std::vector<Off> blocklens, std::vector<Off> disps,
                           const Type& t) {
    LLIO_REQUIRE(blocklens.size() == disps.size(), Errc::InvalidDatatype,
                 "indexed: blocklens/disps size mismatch");
    LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "indexed: null child");
    for (Off b : blocklens)
      LLIO_REQUIRE(b >= 0, Errc::InvalidDatatype, "indexed: blocklen < 0");
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Indexed;
    n->child_ = t;
    n->blocklens_ = std::move(blocklens);
    n->disps_ = std::move(disps);
    const Off ext = t->extent();
    const std::size_t nb = n->blocklens_.size();
    n->prefix_.resize(nb + 1);
    n->prefix_[0] = 0;
    SegInfo all;
    bool have_bounds = false;
    Off lbv = 0, ubv = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      const Off bl = n->blocklens_[i];
      const Off d = n->disps_[i];
      n->prefix_[i + 1] =
          checked_add(n->prefix_[i], checked_mul(bl, t->size()));
      if (bl > 0) {
        const Off span = checked_mul(bl - 1, ext);
        const Off block_lb =
            checked_add(checked_add(t->lb(), d), std::min<Off>(0, span));
        const Off block_ub =
            checked_add(checked_add(t->ub(), d), std::max<Off>(0, span));
        if (!have_bounds) {
          lbv = block_lb;
          ubv = block_ub;
          have_bounds = true;
        } else {
          lbv = std::min(lbv, block_lb);
          ubv = std::max(ubv, block_ub);
        }
      }
      all = concat(all, shift(repeat(seg(*t), bl, ext), d));
    }
    n->size_ = n->prefix_[nb];
    n->lb_ = lbv;
    n->ub_ = ubv;
    n->depth_ = 1 + t->depth();
    store_seg(*n, all);
    return n;
  }

  static Type make_struct(std::vector<Off> blocklens, std::vector<Off> disps,
                          std::vector<Type> types) {
    LLIO_REQUIRE(blocklens.size() == disps.size() &&
                     blocklens.size() == types.size(),
                 Errc::InvalidDatatype, "struct: argument size mismatch");
    for (std::size_t i = 0; i < types.size(); ++i) {
      LLIO_REQUIRE(types[i] != nullptr, Errc::InvalidDatatype,
                   "struct: null child");
      LLIO_REQUIRE(blocklens[i] >= 0, Errc::InvalidDatatype,
                   "struct: blocklen < 0");
    }
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Struct;
    n->blocklens_ = std::move(blocklens);
    n->disps_ = std::move(disps);
    n->children_ = std::move(types);
    const std::size_t nb = n->blocklens_.size();
    n->prefix_.resize(nb + 1);
    n->prefix_[0] = 0;
    SegInfo all;
    bool have_bounds = false;
    Off lbv = 0, ubv = 0;
    int maxdepth = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      const Type& t = n->children_[i];
      const Off bl = n->blocklens_[i];
      const Off d = n->disps_[i];
      const Off ext = t->extent();
      n->prefix_[i + 1] =
          checked_add(n->prefix_[i], checked_mul(bl, t->size()));
      maxdepth = std::max(maxdepth, t->depth());
      if (bl > 0) {
        const Off span = checked_mul(bl - 1, ext);
        const Off block_lb =
            checked_add(checked_add(t->lb(), d), std::min<Off>(0, span));
        const Off block_ub =
            checked_add(checked_add(t->ub(), d), std::max<Off>(0, span));
        if (!have_bounds) {
          lbv = block_lb;
          ubv = block_ub;
          have_bounds = true;
        } else {
          lbv = std::min(lbv, block_lb);
          ubv = std::max(ubv, block_ub);
        }
      }
      all = concat(all, shift(repeat(seg(*t), bl, ext), d));
    }
    n->size_ = n->prefix_[nb];
    n->lb_ = lbv;
    n->ub_ = ubv;
    n->depth_ = 1 + maxdepth;
    store_seg(*n, all);
    return n;
  }

  static Type make_resized(const Type& t, Off lbv, Off ext) {
    LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "resized: null child");
    auto n = std::shared_ptr<Node>(new Node());
    n->kind_ = Kind::Resized;
    n->child_ = t;
    n->resized_lb_ = lbv;
    n->resized_extent_ = ext;
    n->size_ = t->size();
    n->lb_ = lbv;
    n->ub_ = checked_add(lbv, ext);
    n->depth_ = 1 + t->depth();
    store_seg(*n, seg(*t));
    return n;
  }
};

Off basic_size(BasicId id) noexcept {
  switch (id) {
    case BasicId::Byte: return 1;
    case BasicId::Char: return 1;
    case BasicId::Short: return 2;
    case BasicId::Int: return 4;
    case BasicId::Long: return 8;
    case BasicId::Float: return 4;
    case BasicId::Double: return 8;
  }
  return 1;
}

namespace {
Type cached_basic(BasicId id) {
  static const Type table[] = {
      Builder::make_basic(BasicId::Byte),  Builder::make_basic(BasicId::Char),
      Builder::make_basic(BasicId::Short), Builder::make_basic(BasicId::Int),
      Builder::make_basic(BasicId::Long),  Builder::make_basic(BasicId::Float),
      Builder::make_basic(BasicId::Double),
  };
  return table[static_cast<std::size_t>(id)];
}
}  // namespace

Type byte() { return cached_basic(BasicId::Byte); }
Type char_() { return cached_basic(BasicId::Char); }
Type short_() { return cached_basic(BasicId::Short); }
Type int_() { return cached_basic(BasicId::Int); }
Type long_() { return cached_basic(BasicId::Long); }
Type float_() { return cached_basic(BasicId::Float); }
Type double_() { return cached_basic(BasicId::Double); }
Type basic(BasicId id) { return cached_basic(id); }

Type contiguous(Off count, const Type& t) {
  return Builder::make_contiguous(count, t);
}

Type vector(Off count, Off blocklen, Off stride_elems, const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "vector: null child");
  return Builder::make_vector(count, blocklen,
                              checked_mul(stride_elems, t->extent()), t);
}

Type hvector(Off count, Off blocklen, Off stride_bytes, const Type& t) {
  return Builder::make_vector(count, blocklen, stride_bytes, t);
}

Type indexed(std::span<const Off> blocklens, std::span<const Off> disps_elems,
             const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "indexed: null child");
  std::vector<Off> disps(disps_elems.size());
  for (std::size_t i = 0; i < disps.size(); ++i)
    disps[i] = checked_mul(disps_elems[i], t->extent());
  return Builder::make_indexed(
      std::vector<Off>(blocklens.begin(), blocklens.end()), std::move(disps),
      t);
}

Type hindexed(std::span<const Off> blocklens, std::span<const Off> disps_bytes,
              const Type& t) {
  return Builder::make_indexed(
      std::vector<Off>(blocklens.begin(), blocklens.end()),
      std::vector<Off>(disps_bytes.begin(), disps_bytes.end()), t);
}

Type indexed_block(Off blocklen, std::span<const Off> disps_elems,
                   const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype,
               "indexed_block: null child");
  std::vector<Off> blocklens(disps_elems.size(), blocklen);
  std::vector<Off> disps(disps_elems.size());
  for (std::size_t i = 0; i < disps.size(); ++i)
    disps[i] = checked_mul(disps_elems[i], t->extent());
  return Builder::make_indexed(std::move(blocklens), std::move(disps), t);
}

Type struct_(std::span<const Off> blocklens, std::span<const Off> disps_bytes,
             std::span<const Type> types) {
  return Builder::make_struct(
      std::vector<Off>(blocklens.begin(), blocklens.end()),
      std::vector<Off>(disps_bytes.begin(), disps_bytes.end()),
      std::vector<Type>(types.begin(), types.end()));
}

Type resized(const Type& t, Off lb, Off extent) {
  return Builder::make_resized(t, lb, extent);
}

Type subarray(std::span<const Off> sizes, std::span<const Off> subsizes,
              std::span<const Off> starts, Order order, const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "subarray: null child");
  const std::size_t nd = sizes.size();
  LLIO_REQUIRE(nd >= 1 && subsizes.size() == nd && starts.size() == nd,
               Errc::InvalidDatatype, "subarray: dimension mismatch");
  std::vector<Off> sz(sizes.begin(), sizes.end());
  std::vector<Off> ssz(subsizes.begin(), subsizes.end());
  std::vector<Off> st(starts.begin(), starts.end());
  if (order == Order::C) {  // normalize so dimension 0 varies fastest
    std::reverse(sz.begin(), sz.end());
    std::reverse(ssz.begin(), ssz.end());
    std::reverse(st.begin(), st.end());
  }
  for (std::size_t d = 0; d < nd; ++d) {
    LLIO_REQUIRE(sz[d] >= 1 && ssz[d] >= 0 && st[d] >= 0 &&
                     st[d] + ssz[d] <= sz[d],
                 Errc::InvalidDatatype, "subarray: bad size/subsize/start");
  }
  const Off ext = t->extent();
  Type cur = contiguous(ssz[0], t);
  Off slab = checked_mul(sz[0], ext);  // extent of one full row of dim 0
  for (std::size_t d = 1; d < nd; ++d) {
    cur = hvector(ssz[d], 1, slab, cur);
    slab = checked_mul(slab, sz[d]);
  }
  Off offset = 0;
  Off mult = ext;
  for (std::size_t d = 0; d < nd; ++d) {
    offset = checked_add(offset, checked_mul(st[d], mult));
    mult = checked_mul(mult, sz[d]);
  }
  const Off blocklens[] = {1};
  const Off disps[] = {offset};
  Type placed = hindexed(blocklens, disps, cur);
  return resized(placed, 0, slab);
}

bool equal(const Type& a, const Type& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind() != b->kind() || a->size() != b->size() ||
      a->lb() != b->lb() || a->ub() != b->ub())
    return false;
  switch (a->kind()) {
    case Kind::Basic:
      return a->basic_id() == b->basic_id();
    case Kind::Contiguous:
      return a->count() == b->count() && equal(a->child(), b->child());
    case Kind::Vector:
      return a->count() == b->count() && a->blocklen() == b->blocklen() &&
             a->stride_bytes() == b->stride_bytes() &&
             equal(a->child(), b->child());
    case Kind::Indexed: {
      auto ab = a->blocklens(), bb = b->blocklens();
      auto ad = a->disps_bytes(), bd = b->disps_bytes();
      return std::equal(ab.begin(), ab.end(), bb.begin(), bb.end()) &&
             std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()) &&
             equal(a->child(), b->child());
    }
    case Kind::Struct: {
      auto ab = a->blocklens(), bb = b->blocklens();
      auto ad = a->disps_bytes(), bd = b->disps_bytes();
      if (!std::equal(ab.begin(), ab.end(), bb.begin(), bb.end()) ||
          !std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()) ||
          a->children().size() != b->children().size())
        return false;
      for (std::size_t i = 0; i < a->children().size(); ++i)
        if (!equal(a->children()[i], b->children()[i])) return false;
      return true;
    }
    case Kind::Resized:
      return equal(a->child(), b->child());
  }
  return false;
}

namespace {
void render(const Node& n, std::ostream& os) {
  switch (n.kind()) {
    case Kind::Basic:
      switch (n.basic_id()) {
        case BasicId::Byte: os << "byte"; break;
        case BasicId::Char: os << "char"; break;
        case BasicId::Short: os << "short"; break;
        case BasicId::Int: os << "int"; break;
        case BasicId::Long: os << "long"; break;
        case BasicId::Float: os << "float"; break;
        case BasicId::Double: os << "double"; break;
      }
      break;
    case Kind::Contiguous:
      os << "contig(" << n.count() << ", ";
      render(*n.child(), os);
      os << ")";
      break;
    case Kind::Vector:
      os << "hvector(" << n.count() << ", " << n.blocklen() << ", "
         << n.stride_bytes() << "B, ";
      render(*n.child(), os);
      os << ")";
      break;
    case Kind::Indexed: {
      os << "hindexed([";
      for (std::size_t i = 0; i < n.blocklens().size(); ++i) {
        if (i) os << ",";
        os << n.blocklens()[i] << "@" << n.disps_bytes()[i];
      }
      os << "], ";
      render(*n.child(), os);
      os << ")";
      break;
    }
    case Kind::Struct: {
      os << "struct([";
      for (std::size_t i = 0; i < n.children().size(); ++i) {
        if (i) os << ",";
        os << n.blocklens()[i] << "@" << n.disps_bytes()[i] << ":";
        render(*n.children()[i], os);
      }
      os << "])";
      break;
    }
    case Kind::Resized:
      os << "resized(lb=" << n.lb() << ",ext=" << n.extent() << ", ";
      render(*n.child(), os);
      os << ")";
      break;
  }
}
}  // namespace

std::string to_string(const Type& t) {
  if (!t) return "<null>";
  std::ostringstream os;
  render(*t, os);
  return os.str();
}

}  // namespace llio::dt
