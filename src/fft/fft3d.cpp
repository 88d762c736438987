#include "fft/fft3d.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace lrt::fft {

Fft3D::Fft3D(Index n0, Index n1, Index n2)
    : n_{n0, n1, n2}, plan0_(n0), plan1_(n1), plan2_(n2) {
  LRT_CHECK(n0 >= 1 && n1 >= 1 && n2 >= 1,
            "bad 3-D FFT shape " << n0 << "x" << n1 << "x" << n2);
}

// Each axis pass is one batched call into the shared per-axis plan
// (docs/PERFORMANCE.md §2): the batched API tiles the strided gather
// into contiguous transposed buffers and runs butterflies across lines,
// replacing the old per-element copy loops. Axis 1 is phrased per-slab
// so an OpenMP team can take whole slabs when the pass is worth one
// (worth_a_team, the threshold the batched calls use); each slab is
// itself a batched (count=n2, stride=n2, dist=1) call.
void Fft3D::transform(Complex* x, bool inverse) const {
  const Index n0 = n_[0], n1 = n_[1], n2 = n_[2];
  const obs::Span span("fft.fft3d");
  static obs::Counter& calls = obs::counter("fft.fft3d.calls");
  static obs::Counter& points = obs::counter("fft.fft3d.points");
  calls.add(1);
  points.add(static_cast<long long>(n0) * n1 * n2);

  {
    // Axis 2: contiguous lines, one batch over the whole grid.
    const obs::Span axis("fft.fft3d.axis2");
    if (inverse) {
      plan2_.inverse_many(x, n0 * n1, /*stride=*/1, /*dist=*/n2);
    } else {
      plan2_.forward_many(x, n0 * n1, /*stride=*/1, /*dist=*/n2);
    }
  }

  {
    // Axis 1: within each i0 slab, n2 lines of stride n2 starting at
    // consecutive offsets.
    const obs::Span axis("fft.fft3d.axis1");
    auto slab_pass = [&](Index i0) {
      Complex* slab = x + i0 * n1 * n2;
      if (inverse) {
        plan1_.inverse_many(slab, n2, /*stride=*/n2, /*dist=*/1);
      } else {
        plan1_.forward_many(slab, n2, /*stride=*/n2, /*dist=*/1);
      }
    };
    if (n0 > 1 && worth_a_team(n0 * n2, n1)) {
#pragma omp parallel for schedule(static)
      for (Index i0 = 0; i0 < n0; ++i0) slab_pass(i0);
    } else {
      for (Index i0 = 0; i0 < n0; ++i0) slab_pass(i0);
    }
  }

  {
    // Axis 0: stride n1*n2, one batch of n1*n2 lines at unit distance.
    const obs::Span axis("fft.fft3d.axis0");
    const Index stride0 = n1 * n2;
    if (inverse) {
      plan0_.inverse_many(x, stride0, /*stride=*/stride0, /*dist=*/1);
    } else {
      plan0_.forward_many(x, stride0, /*stride=*/stride0, /*dist=*/1);
    }
  }
}

void Fft3D::forward(Complex* x) const { transform(x, /*inverse=*/false); }

void Fft3D::inverse(Complex* x) const { transform(x, /*inverse=*/true); }

void Fft3D::forward(const Real* real_in, Complex* out) const {
  const Index n = size();
  for (Index i = 0; i < n; ++i) out[i] = Complex(real_in[i], Real{0});
  forward(out);
}

void Fft3D::inverse_real(const Complex* in, Real* real_out) const {
  // Grow-only per-thread copy: plans are shared between threads.
  thread_local std::vector<Complex> work;
  const auto n = static_cast<std::size_t>(size());
  if (work.size() < n) work.resize(n);
  std::copy(in, in + n, work.begin());
  inverse(work.data());
  for (std::size_t i = 0; i < n; ++i) real_out[i] = work[i].real();
}

}  // namespace lrt::fft
