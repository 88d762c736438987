// Deterministic memory guard for the distributed driver: the live heap
// of solve_casida_distributed(kImplicit) at p = 4 must stay within the
// streamed design's per-rank working set.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own test executable. Live bytes are requested
// sizes, independent of the allocator, the sanitizer and the thread
// interleaving: the process-wide peak can never exceed the sum of the
// ranks' own peaks, and the bound below is a sum of per-rank terms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "dft/synthetic.hpp"
#include "par/layout.hpp"
#include "par/runtime.hpp"
#include "par/transpose.hpp"
#include "tddft/dist_driver.hpp"

namespace {

std::atomic<long long> g_live{0};
std::atomic<long long> g_peak{0};

// A 16-byte header keeps the size for the unsized delete and preserves
// the default new alignment.
constexpr std::size_t kHeader = 16;

void* counted_new(std::size_t bytes) {
  void* raw = std::malloc(bytes + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = bytes;
  const long long live =
      g_live.fetch_add(static_cast<long long>(bytes)) +
      static_cast<long long>(bytes);
  long long peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<long long>(*reinterpret_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace lrt::tddft {
namespace {

TEST(MemoryFootprint, DistributedImplicitSolveStaysWithinStreamedWorkingSet) {
  // Nr = 4096 on four ranks, Nμ = 6 (Nv + Nc) = 168: each rank's Θ slab
  // (1024 x 168) is large against its Nμ² matrices, as in the paper's
  // regime.
  constexpr int kRanks = 4;
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(16.0), {16, 16, 16});
  dft::SyntheticOptions so;
  so.num_centers = 16;
  so.seed = 5;
  const CasidaProblem problem =
      make_problem_from_synthetic(g, dft::make_synthetic_orbitals(g, 16, 12, so));
  DriverOptions options;
  options.version = Version::kImplicit;
  options.num_states = 3;
  const Index nmu = derive_nmu(options.nmu, options.nmu_ratio, problem);
  ASSERT_EQ(nmu, 168);

  // Per-rank working set of the streamed design, in bytes:
  //  - one Θ slab (this rank's rows x Nμ);
  //  - one slice's exchange buffers: the packed row side, the column
  //    block and the unpacked row-side result, each at most the larger
  //    of (a rank's rows x the widest slice) and (Nr x the widest run);
  //  - four Nμ² matrices: C Cᵀ and its Cholesky factor in the fit, the
  //    partial Mᵀ and the allreduce's receive buffer in the projection;
  //  - slack: one more slab for GEMM packing (the Θ solve packs up to a
  //    slab-sized A panel) and 1 MB for the rest (kernel tables,
  //    K-Means, sampled rows, messages in flight, LOBPCG blocks).
  const par::BlockPartition rows(problem.nr(), kRanks);
  const par::ColumnSlices slices(nmu, kRanks, 4);
  Index widest_slice = 0, widest_run = 0;
  for (Index s = 0; s < slices.slices(); ++s) {
    widest_slice = std::max(widest_slice, slices.width(s));
    for (int q = 0; q < kRanks; ++q) {
      widest_run = std::max(widest_run, slices.count(q, s));
    }
  }
  const long long real = sizeof(Real);
  const long long slab = rows.count(0) * nmu * real;
  const long long slice_buffers =
      3 * std::max(rows.count(0) * widest_slice, problem.nr() * widest_run) *
      real;
  const long long nmu2 = 4 * nmu * nmu * real;
  const long long slack = slab + (1ll << 20);
  const long long bound = kRanks * (slab + slice_buffers + nmu2 + slack);

  const long long baseline = g_live.load();
  g_peak.store(baseline);
  par::run(kRanks, [&](par::Comm& comm) {
    const DistDriverStats stats =
        solve_casida_distributed(comm, problem, options);
    EXPECT_EQ(stats.energies.size(), 3u);
  });
  const long long above = g_peak.load() - baseline;
  RecordProperty("live_peak_bytes", std::to_string(above));
  RecordProperty("bound_bytes", std::to_string(bound));
  EXPECT_LE(above, bound) << "live-heap peak " << above / 1e6
                          << " MB above the pre-solve baseline; streamed "
                             "working-set bound "
                          << bound / 1e6 << " MB";
}

}  // namespace
}  // namespace lrt::tddft
