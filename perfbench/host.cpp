#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace lrt::perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

int affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? count : 1;
}

void set_omp_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

void pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double probe_s(int threads) {
  const auto sweep = [] {
    std::vector<double> buf(std::size_t{1} << 17, 1.0);
    for (int pass = 0; pass < 256; ++pass) {
      for (double& x : buf) x = x * 0.999 + 1e-3;
    }
    volatile double sink = buf[0];
    (void)sink;
  };
  // Plain threads, like par::run's rank threads; they inherit the
  // caller's affinity, so a pinned caller probes its own core.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(sweep);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

json::Value host_block(int ranks, int omp_threads_per_rank) {
  json::Value h = json::object();
  json::set(h, "nproc",
            json::number(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  json::set(h, "affinity_cores", json::number(affinity_cores()));
  json::set(h, "ranks", json::number(ranks));
  json::set(h, "omp_threads_per_rank", json::number(omp_threads_per_rank));
#ifdef _OPENMP
  json::set(h, "openmp", json::boolean(true));
#else
  json::set(h, "openmp", json::boolean(false));
#endif
  json::set(h, "cpu_model", json::string(cpu_model()));
  json::set(h, "compiler", json::string(std::string("g++ ") + __VERSION__));
  json::set(h, "build_type", json::string(LRT_PERFBENCH_BUILD_TYPE));
  json::set(h, "sanitizers", json::string(LRT_PERFBENCH_SANITIZE));
  return h;
}

}  // namespace lrt::perfbench
