#include "fft/real_columns.hpp"

#include <vector>

namespace lrt::fft {

Complex* thread_work(Index n) {
  thread_local std::vector<Complex> work;
  if (static_cast<Index>(work.size()) < n) {
    work.resize(static_cast<std::size_t>(n));
  }
  return work.data();
}

}  // namespace lrt::fft
