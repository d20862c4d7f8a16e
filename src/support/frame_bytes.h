// The byte buffer every socket-plane frame lives in.
//
// Frames on the socket plane are large (a tile of a 320x320x105 cube is
// several MB) and short-lived, so what they cost is mostly the kernel
// faulting in fresh pages, not the copies. FrameBytes is a std::vector of
// bytes with two differences, both in its allocator:
//
//  * resize() does not zero the new bytes. The frame assembler grows a
//    receive buffer ahead of recv() and the envelope encoder appends its
//    trailer; both overwrite every byte they expose, so a zero-fill would
//    only touch each page one more time.
//  * an allocation's 2 MiB-aligned interior is advised MADV_HUGEPAGE, so a
//    multi-MB frame faults in 2 MiB pages instead of 4 KiB ones. A buffer
//    smaller than that interior gets no advice; where transparent huge
//    pages are off (or absent), the advice does nothing.
//
// The advice does not commit memory: a page is still committed only when
// it is first written, so a buffer reserved for a hostile announced length
// commits at most one huge page more than the bytes written into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace rif {

/// The page size large frame buffers are advised to use.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises the kHugePageBytes-aligned interior of [data, data + bytes)
/// MADV_HUGEPAGE; does nothing when that interior is empty.
void advise_huge_pages(void* data, std::size_t bytes) noexcept;

template <typename T>
class FrameAllocator {
 public:
  using value_type = T;

  FrameAllocator() = default;
  template <typename U>
  FrameAllocator(const FrameAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    T* p = std::allocator<T>{}.allocate(n);
    advise_huge_pages(p, n * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }

  /// Default-initialise: for bytes, leave them as they are. Construction
  /// from a value falls back to std::construct_at (allocator_traits).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const FrameAllocator&, const FrameAllocator&) {
    return true;
  }
};

using FrameBytes = std::vector<std::uint8_t, FrameAllocator<std::uint8_t>>;

}  // namespace rif
