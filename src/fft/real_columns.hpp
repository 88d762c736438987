// Real G-space multipliers on real columns, two columns per transform.
//
// The plane-wave code keeps orbitals and densities as real columns and
// filters them in reciprocal space: kinetic energy ½|G|², the kinetic
// preconditioner, the Hartree kernel 4π/|G|², the Kerker filter. For a
// multiplier f even in G (f(G) == f(-G)) the filtered column stays real,
// so two columns a, b ride in one complex transform as Z = FFT(a + i b):
//
//   * same multiplier for both:  Z'(G) = f(G) Z(G);
//   * different multipliers:     Z'(G) = ½[(f_a+f_b)(G) Z(G)
//                                        + (f_a−f_b)(G) conj(Z(−G))],
//     the exact Hermitian split of f_a·FFT(a) + i f_b·FFT(b);
//
// and a', b' are the real and imaginary parts of IFFT(Z'). An odd last
// column runs alone as FFT(a + 0i), f·Z, IFFT, real part — the same
// operations in the same order as a one-column caller always did.
// weighted_spectral_sum pairs columns the same way for Σ f(G)|FFT(·)|²
// (the kinetic energy).
//
// Columns are strided: element i of column j is at data[i * ld + j], so a
// row-major Nr x k block (la::Matrix) and a contiguous vector (ld = 1,
// k = 1) both fit. Work arrays are grow-only and owned by the calling
// thread, never by the (shared, const) plan.
#pragma once

#include <cmath>
#include <type_traits>

#include "fft/fft3d.hpp"

namespace lrt::fft {

/// Per-thread complex work array of at least n elements; the same array
/// is returned on every call from one thread (contents unspecified).
Complex* thread_work(Index n);

/// Σ_j w_j Σ_G f(G) |FFT(in_j)(G)|² over the k real columns of `in` (w_j
/// >= 0; zero-weight columns are skipped), for `f` a `Real(Index g)`
/// even in G. Columns go two per transform as Z = FFT(√w_a a + i √w_b b):
/// for real columns and even f the cross term of f|Z|² cancels over ±G,
/// so Σ f|Z|² = w_a Σ f|A|² + w_b Σ f|B|² without a split. A lone column
/// with w = 1 is transformed exactly as FFT(a + 0i).
template <class F>
Real weighted_spectral_sum(const Fft3D& fft, Index k, const Real* in,
                           Index ld, const Real* weights, const F& f) {
  const Index nr = fft.size();
  Complex* z = thread_work(nr);
  auto next_weighted = [&](Index j) {
    while (j < k && weights[j] == Real{0}) ++j;
    return j;
  };
  Real sum = 0;
  for (Index a = next_weighted(0); a < k;) {
    const Index b = next_weighted(a + 1);
    const Real wa = std::sqrt(weights[a]);
    if (b < k) {
      const Real wb = std::sqrt(weights[b]);
      for (Index i = 0; i < nr; ++i) {
        z[i] = Complex(wa * in[i * ld + a], wb * in[i * ld + b]);
      }
    } else {
      for (Index i = 0; i < nr; ++i) z[i] = Complex(wa * in[i * ld + a], 0);
    }
    fft.forward(z);
    for (Index g = 0; g < nr; ++g) sum += f(g) * std::norm(z[g]);
    a = b < k ? next_weighted(b + 1) : k;
  }
  return sum;
}

/// out_j = IFFT(f_j(G) · FFT(in_j)) for the k real columns of `in`,
/// written to the k columns of `out` (may alias `in`). `f` is either
/// `Real(Index g)`, one multiplier shared by all columns, or
/// `Real(Index j, Index g)`, column j's multiplier. g is the flat FFT
/// index; the per-column form is evaluated at one G of each ±G pair, so
/// it must be even in G. A non-null `diag` (nr values) adds the
/// real-space diagonal term diag ∘ in_j in the same write-out pass.
/// Makes 2·⌈k/2⌉ 3-D transforms.
template <class F>
void apply_real_multiplier(const Fft3D& fft, Index k, const Real* in,
                           Index ld_in, Real* out, Index ld_out, const F& f,
                           const Real* diag = nullptr) {
  constexpr bool kShared = std::is_invocable_v<const F&, Index>;
  const auto [n0, n1, n2] = fft.shape();
  const Index nr = fft.size();
  Complex* z = thread_work(nr);
  for (Index a = 0; a < k; a += 2) {
    const bool pair = a + 1 < k;
    const Index b = pair ? a + 1 : a;
    if (pair) {
      for (Index i = 0; i < nr; ++i) {
        z[i] = Complex(in[i * ld_in + a], in[i * ld_in + b]);
      }
    } else {
      for (Index i = 0; i < nr; ++i) z[i] = Complex(in[i * ld_in + a], 0);
    }
    fft.forward(z);
    if constexpr (kShared) {
      for (Index g = 0; g < nr; ++g) z[g] *= f(g);
    } else if (!pair) {
      for (Index g = 0; g < nr; ++g) z[g] *= f(a, g);
    } else {
      // Visit each ±G pair once; -G of (i0, i1, i2) is (-i0, -i1, -i2)
      // modulo the grid.
      for (Index i0 = 0; i0 < n0; ++i0) {
        const Index m0 = i0 == 0 ? 0 : n0 - i0;
        for (Index i1 = 0; i1 < n1; ++i1) {
          const Index m1 = i1 == 0 ? 0 : n1 - i1;
          for (Index i2 = 0; i2 < n2; ++i2) {
            const Index m2 = i2 == 0 ? 0 : n2 - i2;
            const Index g = (i0 * n1 + i1) * n2 + i2;
            const Index h = (m0 * n1 + m1) * n2 + m2;
            if (h < g) continue;
            const Real fa = f(a, g);
            const Real fb = f(b, g);
            const Real sum = Real{0.5} * (fa + fb);
            const Real diff = Real{0.5} * (fa - fb);
            const Complex zg = z[g];
            const Complex zh = z[h];
            z[g] = sum * zg + diff * std::conj(zh);
            if (h != g) z[h] = sum * zh + diff * std::conj(zg);
          }
        }
      }
    }
    fft.inverse(z);
    // Reads in(i, j) before writing out(i, j), so `out` may alias `in`.
    const auto put = [&](Index i, Index j, Real v) {
      out[i * ld_out + j] = diag ? v + diag[i] * in[i * ld_in + j] : v;
    };
    for (Index i = 0; i < nr; ++i) {
      put(i, a, z[i].real());
      if (pair) put(i, b, z[i].imag());
    }
  }
}

}  // namespace lrt::fft
