#pragma once
/// \file aligned_vector.hpp
/// \brief Cache-line/“memory-row” aligned storage for kernel buffers.
///
/// Kernel arrays are aligned to 128 bytes so that element 0 begins a
/// cacheline (host backend) and an address group (simulator backend):
/// the coalescing analysis assumes array base addresses are
/// group-aligned exactly like `cudaMalloc` guarantees on real GPUs.
///
/// The SIMD kernel tier additionally relies on a 64-byte floor: a
/// full-width AVX-512 vector load of element 0 must not split a
/// cacheline. The kernels themselves only use unaligned load/store
/// instructions (correctness never depends on alignment), but the
/// floor keeps the aligned fast path on every buffer that flows
/// through `aligned_vector` or the `BufferPool` (whose
/// `kBufferAlignment` shares the same 128-byte boundary).
///
/// Blocks of `kDirectMapBytes` or more are mapped and unmapped straight
/// from the kernel (page-aligned, so the 128-byte guarantee holds). A
/// plan, inverse or scratch array freed by a churning plan cache then
/// returns its pages to the OS at once; through malloc, glibc's dynamic
/// mmap threshold rises after the first such free and the arenas keep
/// every later block of that size resident. Under AddressSanitizer all
/// blocks stay on `operator new`, so its redzones keep guarding the
/// kernels' tail loads and stores.

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace hmm::util {

/// Smallest block the allocator maps directly (see the file comment).
inline constexpr std::size_t kDirectMapBytes = std::size_t{128} << 10;

namespace detail {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kDirectMap = false;
#else
inline constexpr bool kDirectMap = true;
#endif

/// Anonymous private pages for `bytes` (throws std::bad_alloc).
void* map_pages(std::size_t bytes);
/// Return pages from `map_pages` to the kernel.
void unmap_pages(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// Minimal over-aligned allocator.
template <class T, std::size_t Align = 128>
struct AlignedAllocator {
  static_assert(Align >= 64 && (Align & (Align - 1)) == 0,
                "kernel buffers guarantee at least 64-byte (vector-width) alignment");
  using value_type = T;
  static constexpr std::align_val_t alignment{Align};

  /// Explicit rebind: the automatic one does not apply because `Align`
  /// is a non-type template parameter.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    if (detail::kDirectMap && bytes >= kDirectMapBytes) {
      return static_cast<T*>(detail::map_pages(bytes));
    }
    return static_cast<T*>(::operator new(bytes, alignment));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (detail::kDirectMap && bytes >= kDirectMapBytes) {
      detail::unmap_pages(p, bytes);
      return;
    }
    ::operator delete(p, alignment);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// 128-byte-aligned vector; the standard buffer type for kernel data.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace hmm::util
