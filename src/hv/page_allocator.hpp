// Allocators for the large packed bit buffers: PackedHVs row words and
// BitMatrix column planes.
//
// Blocks of at least kDirectMapBytes are mapped straight from the kernel
// (mmap) and handed back on free (munmap); smaller blocks go to operator
// new. The reason is glibc's dynamic mmap threshold: after the first large
// free, malloc raises the threshold, and later ~1 MB fold bitplanes land in
// per-thread arenas that keep their pages resident after they are freed.
// Peak RSS then grows with the number of threads that ever held one. Mapped
// directly, resident memory tracks the live buffers.
//
// AddressSanitizer builds route every block through operator new, so ASan
// keeps checking bounds on these buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define HDC_HV_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HDC_HV_ASAN 1
#endif
#endif

#if !defined(HDC_HV_ASAN) && __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define HDC_HV_DIRECT_MAP 1
#endif

namespace hdc::hv {

/// Smallest block PageAllocator maps directly.
inline constexpr std::size_t kDirectMapBytes = std::size_t{128} * 1024;

namespace detail {

inline void* allocate_block(std::size_t bytes) {
#if defined(HDC_HV_DIRECT_MAP)
  if (bytes >= kDirectMapBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  return ::operator new(bytes);
}

inline void free_block(void* p, std::size_t bytes) noexcept {
#if defined(HDC_HV_DIRECT_MAP)
  if (bytes >= kDirectMapBytes) {
    ::munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p, bytes);
}

}  // namespace detail

/// Stateless std::allocator replacement; every instance is interchangeable.
template <typename T>
class PageAllocator {
 public:
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PageAllocator() noexcept = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(detail::allocate_block(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::free_block(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// The word buffer type of PackedHVs.
using PackedWords = std::vector<std::uint64_t, PageAllocator<std::uint64_t>>;

/// PageAllocator whose value-less construct() leaves the word
/// uninitialised, so resize(n) costs no zero pass. Only for buffers whose
/// producer writes every word before anything reads one.
template <typename T>
class UninitPageAllocator : public PageAllocator<T> {
 public:
  UninitPageAllocator() noexcept = default;
  template <typename U>
  UninitPageAllocator(const UninitPageAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The word buffer type of BitMatrix planes (BitMatrix::assign_rows writes
/// every word).
using PlaneWords =
    std::vector<std::uint64_t, UninitPageAllocator<std::uint64_t>>;

}  // namespace hdc::hv
