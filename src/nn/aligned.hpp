// 64-byte-aligned storage for Matrix and the GEMM pack buffers.
//
// The vector kernel tiers load packed panels with 256-bit (AVX2) or 512-bit
// (AVX-512) vector loads; a cache-line-aligned base keeps every packed
// panel (laid out contiguously from the buffer start) on a zmm boundary,
// and lets sanitizer builds verify the alignment contract instead of
// relying on glibc's incidental 16-byte malloc alignment. Alignment is a
// property of the allocation, not the kernels' correctness: the kernels
// use unaligned loads for C rows and in-place B rows, whose offsets depend
// on the (arbitrary) leading dimension.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace adsec {

template <class T, std::size_t Align>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two no smaller than alignof(T)");
  using value_type = T;
  // allocator_traits can't auto-rebind across the non-type Align parameter.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

// Matrix storage alignment: one cache line, one AVX-512 vector.
inline constexpr std::size_t kMatrixAlign = 64;

using AlignedVector = std::vector<double, AlignedAllocator<double, kMatrixAlign>>;

}  // namespace adsec
