// Host context stamped into every result, and the thread budget.
#pragma once

#include "common.hpp"

namespace lrt::perfbench {

/// Cores this process may run on (sched_getaffinity), at least 1.
int affinity_cores();

/// Sets the calling thread's OpenMP team size (no-op without OpenMP).
void set_omp_threads(int threads);

/// Pins the calling thread to the last core of its affinity mask.
void pin_to_one_core();

/// Wall seconds of the host-speed probe: a fixed read-modify-write sweep
/// over a 1 MB buffer per thread, on `threads` threads at once.
/// It is the benchmark's own code, so no library change moves it; on a
/// shared host it slows and speeds with the solves around it.
double probe_s(int threads);

/// nproc, affinity cores, ranks, OpenMP threads per rank, CPU model,
/// compiler, build type and sanitizers. perfbench/run.py adds the source
/// revision. Timings compare only between equal host blocks.
json::Value host_block(int ranks, int omp_threads_per_rank);

}  // namespace lrt::perfbench
