// 64-byte-aligned vector storage for SIMD-scanned buffers.
//
// Column payloads, selection vectors, and batch outputs are read by
// the vector kernels in exec/simd.h; starting every such allocation on
// a cache-line boundary means a full-width load at a span head never
// straddles lines (the kernels use unaligned loads, so only the base
// allocation is guaranteed).
#ifndef MOSAIC_COMMON_ALIGNED_H_
#define MOSAIC_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace mosaic {

/// Cache-line alignment for all SIMD-visible buffers; also at least
/// the widest vector register the kernels use (64 >= 32-byte AVX2).
inline constexpr size_t kSimdAlignment = 64;

template <typename T, size_t Alignment = kSimdAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment below the type's own");

  AlignedAllocator() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): converting rebind
  // copy, required implicit by the allocator protocol.
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    // Over-aligned operator new (C++17) — matched by the sized,
    // aligned delete below.
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

/// std::vector whose data() is 64-byte aligned. Element access and
/// iteration are identical to std::vector; only the allocator differs,
/// so converting a call site is a type change, not a behavior change.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace mosaic

#endif  // MOSAIC_COMMON_ALIGNED_H_
