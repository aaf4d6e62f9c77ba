// Counts every global heap allocation in the benchmark binary, so the
// data plane's zero-allocation contract is measured on every workload
// from outside the library (the same hook tests/steady_state_alloc_test
// installs). Atomic: the sharded workload allocates from four threads.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

std::uint64_t e2e::heap_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
