// Allocator for buffers whose every element is written before it is read.
#pragma once

#include <memory>
#include <new>
#include <utility>

namespace apt {

/// std::allocator whose value-less construct() default-initializes, so
/// resizing a vector of trivially constructible elements (floats, node ids)
/// leaves the new elements unwritten instead of zero-filling them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace apt
