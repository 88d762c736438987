// Counting replacement of the global operator new, linked only into
// test_obs. The replacement lives in its own TU (alloc_count.cpp): in the
// same TU as test bodies, GCC inlines the malloc-backed new into them,
// pairs it with the free-backed delete and raises -Wmismatched-new-delete.
#pragma once

namespace lrt::test {

/// Global operator new calls made so far by this process, or -1 when the
/// build does not count them (sanitizer builds keep their own allocator).
long long allocation_count();

}  // namespace lrt::test
