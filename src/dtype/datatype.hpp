// MPI-style derived datatype engine.
//
// Datatypes are immutable trees built with the constructors below, which
// mirror the MPI type constructors (MPI_Type_contiguous, MPI_Type_vector,
// MPI_Type_create_hvector, MPI_Type_indexed, MPI_Type_create_hindexed,
// MPI_Type_create_struct, MPI_Type_create_subarray, MPI_Type_create_resized).
//
// A datatype defines a *typemap*: an ordered sequence of (memory offset,
// basic element) pairs.  The "packed stream" of a datatype is the
// concatenation of its data bytes in typemap order; packing/unpacking and
// all file positioning in llio are defined in terms of this stream.
//
// Cached per node (all computed once at construction):
//   size       - data bytes per instance
//   lb/ub      - extent bounds (extent = ub - lb); repetitions tile at extent
//   true_lb/ub - bounds of actual data
//   block_count- number of maximal contiguous segments per instance (the
//                paper's N_block; adjacent segments are counted merged)
//   depth      - tree depth (the paper's low-order pack cost term)
//   contiguous - single dense segment, extent == size
//   monotone   - segments appear at strictly increasing, non-overlapping
//                offsets, and repetitions at extent spacing do not overlap.
//                This is the MPI-IO requirement on filetypes and the
//                precondition for the fotf navigation functions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace llio::dt {

class Node;
/// Shared-ownership handle to an immutable datatype node.
using Type = std::shared_ptr<const Node>;

enum class Kind : std::uint8_t {
  Basic,       ///< predefined elementary type
  Contiguous,  ///< count instances of child at child-extent spacing
  Vector,      ///< count blocks of blocklen child instances, stride bytes apart
  Indexed,     ///< blocks of child instances at explicit byte displacements
  Struct,      ///< heterogeneous blocks of different children
  Resized,     ///< child with overridden lb/extent
};

enum class BasicId : std::uint8_t {
  Byte,    // 1
  Char,    // 1
  Short,   // 2
  Int,     // 4
  Long,    // 8
  Float,   // 4
  Double,  // 8
};

class Node {
 public:
  Kind kind() const noexcept { return kind_; }
  BasicId basic_id() const noexcept { return basic_; }

  Off count() const noexcept { return count_; }
  Off blocklen() const noexcept { return blocklen_; }
  Off stride_bytes() const noexcept { return stride_; }
  const Type& child() const noexcept { return child_; }
  std::span<const Off> blocklens() const noexcept { return blocklens_; }
  std::span<const Off> disps_bytes() const noexcept { return disps_; }
  std::span<const Type> children() const noexcept { return children_; }

  Off size() const noexcept { return size_; }
  Off lb() const noexcept { return lb_; }
  Off ub() const noexcept { return ub_; }
  Off extent() const noexcept { return ub_ - lb_; }
  Off true_lb() const noexcept { return true_lb_; }
  Off true_ub() const noexcept { return true_ub_; }
  Off block_count() const noexcept { return nblocks_; }
  int depth() const noexcept { return depth_; }
  bool is_contiguous() const noexcept { return contig_; }
  bool is_monotone() const noexcept { return monotone_; }

  /// Indexed/Struct only: prefix sums of per-block data sizes;
  /// prefix()[i] = data bytes preceding block i, plus a final total entry.
  std::span<const Off> prefix() const noexcept { return prefix_; }

  /// Data bytes covered by one block i (Indexed/Struct).
  Off block_size(std::size_t i) const noexcept {
    return prefix_[i + 1] - prefix_[i];
  }

 private:
  Node() = default;
  friend class Builder;

  Kind kind_ = Kind::Basic;
  BasicId basic_ = BasicId::Byte;
  Off count_ = 1;
  Off blocklen_ = 1;
  Off stride_ = 0;
  Type child_;
  std::vector<Off> blocklens_;
  std::vector<Off> disps_;
  std::vector<Type> children_;
  Off resized_lb_ = 0;
  Off resized_extent_ = 0;

  Off size_ = 0;
  Off lb_ = 0, ub_ = 0;
  Off true_lb_ = 0, true_ub_ = 0;
  Off nblocks_ = 0;
  Off first_off_ = 0, first_len_ = 0;  // first maximal segment per instance
  Off last_off_ = 0, last_len_ = 0;    // last maximal segment per instance
  int depth_ = 1;
  bool contig_ = true;
  bool monotone_ = true;
  std::vector<Off> prefix_;
};

// ---- predefined basic types -------------------------------------------

Type byte();
Type char_();
Type short_();
Type int_();
Type long_();
Type float_();
Type double_();
Type basic(BasicId id);
Off basic_size(BasicId id) noexcept;

// ---- type constructors (mirror MPI) -----------------------------------

/// count repetitions of t, tiled at extent(t).
Type contiguous(Off count, const Type& t);

/// count blocks of blocklen instances of t; block starts stride *elements*
/// (i.e. stride * extent(t) bytes) apart.  Equivalent to MPI_Type_vector.
Type vector(Off count, Off blocklen, Off stride_elems, const Type& t);

/// As vector, but the stride is given in bytes (MPI_Type_create_hvector).
Type hvector(Off count, Off blocklen, Off stride_bytes, const Type& t);

/// Blocks of blocklens[i] instances of t at element displacements disps[i]
/// (MPI_Type_indexed).
Type indexed(std::span<const Off> blocklens, std::span<const Off> disps_elems,
             const Type& t);

/// As indexed, but displacements in bytes (MPI_Type_create_hindexed).
Type hindexed(std::span<const Off> blocklens, std::span<const Off> disps_bytes,
              const Type& t);

/// Equal-size blocks at element displacements (MPI_Type_create_indexed_block).
Type indexed_block(Off blocklen, std::span<const Off> disps_elems,
                   const Type& t);

/// Heterogeneous struct: blocklens[i] instances of types[i] at byte
/// displacement disps[i] (MPI_Type_create_struct).
Type struct_(std::span<const Off> blocklens, std::span<const Off> disps_bytes,
             std::span<const Type> types);

/// Override lb and extent (MPI_Type_create_resized).
Type resized(const Type& t, Off lb, Off extent);

enum class Order { C, Fortran };

/// n-dimensional subarray of a larger n-dimensional array
/// (MPI_Type_create_subarray).  sizes/subsizes/starts are per dimension;
/// for Order::C the last dimension varies fastest, for Order::Fortran the
/// first.
Type subarray(std::span<const Off> sizes, std::span<const Off> subsizes,
              std::span<const Off> starts, Order order, const Type& t);

/// HPF-style distribution kinds for darray (MPI_DISTRIBUTE_*).
enum class Distrib {
  None,    ///< dimension not distributed (psizes[d] must be 1)
  Block,   ///< one contiguous block per process
  Cyclic,  ///< blocks of darg elements dealt round-robin
};

/// Use the default distribution argument (MPI_DISTRIBUTE_DFLT_DARG):
/// Block -> ceil(gsize/psize), Cyclic -> 1.
inline constexpr Off kDfltDarg = -1;

/// rank's piece of an ndims-dimensional global array distributed over a
/// process grid (MPI_Type_create_darray).  The process grid is ordered
/// row-major over `psizes` (as the MPI standard specifies); `order`
/// selects the array storage order.  A rank owning no elements yields a
/// zero-size type.
Type darray(int nprocs, int rank, std::span<const Off> gsizes,
            std::span<const Distrib> distribs, std::span<const Off> dargs,
            std::span<const Off> psizes, Order order, const Type& t);

/// Overflow-checked Off arithmetic for datatype sizes, bounds and spans:
/// a type whose size or extent does not fit 64 bits throws
/// InvalidDatatype instead of wrapping.
Off checked_add(Off a, Off b);
Off checked_mul(Off a, Off b);

// ---- property accessors (free-function style used across llio) --------

inline Off size(const Type& t) { return t->size(); }
inline Off extent(const Type& t) { return t->extent(); }
inline Off lb(const Type& t) { return t->lb(); }
inline Off ub(const Type& t) { return t->ub(); }
inline Off true_lb(const Type& t) { return t->true_lb(); }
inline Off true_ub(const Type& t) { return t->true_ub(); }
inline Off block_count(const Type& t) { return t->block_count(); }
inline int depth(const Type& t) { return t->depth(); }
inline bool is_contiguous(const Type& t) { return t->is_contiguous(); }
inline bool is_monotone(const Type& t) { return t->is_monotone(); }

/// Structural equality (same tree shape and parameters).
bool equal(const Type& a, const Type& b);

/// Debug rendering, e.g. "vector(8, 1, 16, byte)".
std::string to_string(const Type& t);

}  // namespace llio::dt
