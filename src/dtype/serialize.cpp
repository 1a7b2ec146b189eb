#include "dtype/serialize.hpp"

#include <cstring>

#include "common/error.hpp"

namespace llio::dt {

namespace {

void put_u8(ByteVec& out, std::uint8_t v) { out.push_back(Byte{v}); }

void put_i64(ByteVec& out, Off v) {
  Byte raw[sizeof(Off)];
  std::memcpy(raw, &v, sizeof(Off));
  out.insert(out.end(), raw, raw + sizeof(Off));
}

class Reader {
 public:
  explicit Reader(ConstByteSpan data) : data_(data) {}

  std::uint8_t u8() {
    LLIO_REQUIRE(pos_ + 1 <= data_.size(), Errc::InvalidDatatype,
                 "deserialize: truncated input");
    return std::to_integer<std::uint8_t>(data_[pos_++]);
  }

  Off i64() {
    LLIO_REQUIRE(pos_ + sizeof(Off) <= data_.size(), Errc::InvalidDatatype,
                 "deserialize: truncated input");
    Off v;
    std::memcpy(&v, data_.data() + pos_, sizeof(Off));
    pos_ += sizeof(Off);
    return v;
  }

  bool done() const { return pos_ == data_.size(); }

  /// A block count whose (blocklen, disp) pairs must fit in the rest of
  /// the input, so a hostile count cannot drive a huge allocation.
  Off block_count(const char* what) {
    const Off n = i64();
    LLIO_REQUIRE(n >= 0 && n <= to_off((data_.size() - pos_) / 16),
                 Errc::InvalidDatatype, what);
    return n;
  }

 private:
  ConstByteSpan data_;
  std::size_t pos_ = 0;
};

void encode(const Node& n, ByteVec& out) {
  put_u8(out, static_cast<std::uint8_t>(n.kind()));
  switch (n.kind()) {
    case Kind::Basic:
      put_u8(out, static_cast<std::uint8_t>(n.basic_id()));
      break;
    case Kind::Contiguous:
      put_i64(out, n.count());
      encode(*n.child(), out);
      break;
    case Kind::Vector:
      put_i64(out, n.count());
      put_i64(out, n.blocklen());
      put_i64(out, n.stride_bytes());
      encode(*n.child(), out);
      break;
    case Kind::Indexed: {
      put_i64(out, static_cast<Off>(n.blocklens().size()));
      for (Off b : n.blocklens()) put_i64(out, b);
      for (Off d : n.disps_bytes()) put_i64(out, d);
      encode(*n.child(), out);
      break;
    }
    case Kind::Struct: {
      put_i64(out, static_cast<Off>(n.children().size()));
      for (Off b : n.blocklens()) put_i64(out, b);
      for (Off d : n.disps_bytes()) put_i64(out, d);
      for (const Type& c : n.children()) encode(*c, out);
      break;
    }
    case Kind::Resized:
      put_i64(out, n.lb());
      put_i64(out, n.extent());
      encode(*n.child(), out);
      break;
  }
}

Type decode(Reader& r, int depth_budget) {
  LLIO_REQUIRE(depth_budget > 0, Errc::InvalidDatatype,
               "deserialize: tree too deep");
  const auto kind = static_cast<Kind>(r.u8());
  switch (kind) {
    case Kind::Basic: {
      const auto id = r.u8();
      LLIO_REQUIRE(id <= static_cast<std::uint8_t>(BasicId::Double),
                   Errc::InvalidDatatype, "deserialize: bad basic id");
      return basic(static_cast<BasicId>(id));
    }
    case Kind::Contiguous: {
      const Off count = r.i64();
      return contiguous(count, decode(r, depth_budget - 1));
    }
    case Kind::Vector: {
      const Off count = r.i64();
      const Off blocklen = r.i64();
      const Off stride = r.i64();
      return hvector(count, blocklen, stride, decode(r, depth_budget - 1));
    }
    case Kind::Indexed: {
      const Off n = r.block_count("deserialize: bad indexed block count");
      std::vector<Off> bls(to_size(n)), ds(to_size(n));
      for (Off& b : bls) b = r.i64();
      for (Off& d : ds) d = r.i64();
      return hindexed(bls, ds, decode(r, depth_budget - 1));
    }
    case Kind::Struct: {
      const Off n = r.block_count("deserialize: bad struct child count");
      std::vector<Off> bls(to_size(n)), ds(to_size(n));
      for (Off& b : bls) b = r.i64();
      for (Off& d : ds) d = r.i64();
      std::vector<Type> kids(to_size(n));
      for (Type& c : kids) c = decode(r, depth_budget - 1);
      return struct_(bls, ds, kids);
    }
    case Kind::Resized: {
      const Off lbv = r.i64();
      const Off ext = r.i64();
      return resized(decode(r, depth_budget - 1), lbv, ext);
    }
  }
  throw_error(Errc::InvalidDatatype, "deserialize: unknown node kind");
}

}  // namespace

ByteVec serialize(const Type& t) {
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "serialize: null type");
  ByteVec out;
  encode(*t, out);
  return out;
}

Type deserialize(ConstByteSpan data) {
  Reader r(data);
  Type t = decode(r, /*depth_budget=*/256);
  LLIO_REQUIRE(r.done(), Errc::InvalidDatatype,
               "deserialize: trailing bytes after type");
  return t;
}

}  // namespace llio::dt
