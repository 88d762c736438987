#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// Replacing operator new/delete clashes with sanitizer interceptors, so
// instrumented builds do not count; the zero-allocation property is only
// meaningful uninstrumented anyway.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LRT_TEST_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LRT_TEST_COUNTS_ALLOCATIONS 0
#else
#define LRT_TEST_COUNTS_ALLOCATIONS 1
#endif
#else
#define LRT_TEST_COUNTS_ALLOCATIONS 1
#endif

#if LRT_TEST_COUNTS_ALLOCATIONS
namespace {
std::atomic<long long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

long long lrt::test::allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
#else
long long lrt::test::allocation_count() { return -1; }
#endif  // LRT_TEST_COUNTS_ALLOCATIONS
