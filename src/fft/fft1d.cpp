#include "fft/fft1d.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/counters.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace lrt::fft {
namespace {

using constants::kPi;

bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Batched transforms (docs/PERFORMANCE.md §2).
//
// A tile of nt lines lives split-complex and element-major: re[j*nt + t]
// is element j of line t. Every butterfly then applies the same twiddle
// to nt independent lines with unit-stride loads, so the t-loops
// vectorize and the per-line dependency chains overlap. A line's
// operations do not depend on nt or on its lane, and the per-line
// forward()/inverse() are batches of one, so batched results equal
// per-line results bit for bit by construction (there is no FMA
// contraction at the baseline ISA).
// ---------------------------------------------------------------------------

void radix2_many(Real* re, Real* im, Index n, Index nt,
                 const std::vector<Complex>& twiddle) {
  // Bit-reversal permutation of whole element rows.
  for (Index i = 1, j = 0; i < n; ++i) {
    Index bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      Real* ri = re + i * nt;
      Real* rj = re + j * nt;
      Real* qi = im + i * nt;
      Real* qj = im + j * nt;
      for (Index t = 0; t < nt; ++t) std::swap(ri[t], rj[t]);
      for (Index t = 0; t < nt; ++t) std::swap(qi[t], qj[t]);
    }
  }
  for (Index len = 2; len <= n; len <<= 1) {
    const Index step = n / len;
    const Index half = len / 2;
    for (Index i = 0; i < n; i += len) {
      for (Index k = 0; k < half; ++k) {
        const Complex w = twiddle[static_cast<std::size_t>(k * step)];
        const Real wr = w.real();
        const Real wi = w.imag();
        Real* ur = re + (i + k) * nt;
        Real* ui = im + (i + k) * nt;
        Real* vr = re + (i + k + half) * nt;
        Real* vi = im + (i + k + half) * nt;
#pragma omp simd
        for (Index t = 0; t < nt; ++t) {
          const Real xr = vr[t] * wr - vi[t] * wi;
          const Real xi = vr[t] * wi + vi[t] * wr;
          const Real yr = ur[t];
          const Real yi = ui[t];
          ur[t] = yr + xr;
          ui[t] = yi + xi;
          vr[t] = yr - xr;
          vi[t] = yi - xi;
        }
      }
    }
  }
}

/// Multiplies every line element-wise by `scale` (inverse normalization).
void scale_many(Real* re, Real* im, Index n, Index nt, Real scale) {
  const Index total = n * nt;
#pragma omp simd
  for (Index i = 0; i < total; ++i) re[i] *= scale;
#pragma omp simd
  for (Index i = 0; i < total; ++i) im[i] *= scale;
}

// ---------------------------------------------------------------------------
// Stockham autosort mixed-radix transform on the same tiles.
//
// A stage of radix p works on sub-transforms of length len = p*m that sit
// at element stride s (s = product of the earlier radices). For every
// j < m it reads the p inputs x[(j + r*m)*s + q], r < p, takes their
// length-p DFT b, and writes y[(p*j + u)*s + q] = b_u * w_len^(j*u) for
// every q < s. The next stage runs on y with len = m and s = s*p, so the
// output comes out in natural order without a bit-reversal pass. With
// element-major tiles the q and t indices fuse into one contiguous run
// of s*nt values per (j, r), which is the vectorized loop.
// ---------------------------------------------------------------------------

/// Radices the Stockham kernel handles, in stage order: fours first,
/// then at most one two, then the odd radices.
constexpr Index kRadices[] = {4, 2, 3, 5, 7};

/// exp(-2πi k/n), evaluated in long double so the table is correctly
/// rounded to Real for the lengths in use.
Complex unit_root(Index k, Index n) {
  const long double angle = -2.0L * 3.141592653589793238462643383279502884L *
                            static_cast<long double>(k % n) /
                            static_cast<long double>(n);
  return Complex(static_cast<Real>(std::cos(angle)),
                 static_cast<Real>(std::sin(angle)));
}

/// Stores butterfly output b at y, times the stage twiddle w if kTwiddle.
template <bool kTwiddle>
inline void put(Real* yr, Real* yi, Real br, Real bi, Real wr, Real wi) {
  if constexpr (kTwiddle) {
    *yr = br * wr - bi * wi;
    *yi = br * wi + bi * wr;
  } else {
    *yr = br;
    *yi = bi;
  }
}

/// One (stage, j) block of a radix-P stage: the P input runs of `run`
/// values start at x + r*in_step, the P output runs at y + u*run, and
/// output u >= 1 is multiplied by the twiddle (wr, wi)[u-1]. `sign` is -1
/// forward, +1 inverse; `rot` holds cos(2πru/P) then sin(2πru/P) for
/// r, u in 1..(P-1)/2 (odd P). Radix 2 and 4 are written out on scalars;
/// 3, 5 and 7 share the odd-prime butterfly, whose fixed-trip loops must
/// be unrolled (GCC unroll) for the t-loop to vectorize.
template <int P, bool kTwiddle>
void stockham_block(const Real* xr, const Real* xi, Index in_step, Real* yr,
                    Real* yi, Index run, const Real* wr, const Real* wi,
                    const Real* rot, Real sign) {
  Real w_r[P] = {}, w_i[P] = {};
  if constexpr (kTwiddle) {
    for (int u = 1; u < P; ++u) {
      w_r[u] = wr[u - 1];
      w_i[u] = wi[u - 1];
    }
  }
  if constexpr (P == 2) {
    const Real w1r = w_r[1], w1i = w_i[1];
#pragma omp simd
    for (Index t = 0; t < run; ++t) {
      const Real a0r = xr[t], a0i = xi[t];
      const Real a1r = xr[in_step + t], a1i = xi[in_step + t];
      put<false>(yr + t, yi + t, a0r + a1r, a0i + a1i, 1, 0);
      put<kTwiddle>(yr + run + t, yi + run + t, a0r - a1r, a0i - a1i, w1r,
                    w1i);
    }
  } else if constexpr (P == 4) {
    const Real w1r = w_r[1], w1i = w_i[1], w2r = w_r[2], w2i = w_i[2];
    const Real w3r = w_r[3], w3i = w_i[3];
#pragma omp simd
    for (Index t = 0; t < run; ++t) {
      const Real a0r = xr[t], a0i = xi[t];
      const Real a1r = xr[in_step + t], a1i = xi[in_step + t];
      const Real a2r = xr[2 * in_step + t], a2i = xi[2 * in_step + t];
      const Real a3r = xr[3 * in_step + t], a3i = xi[3 * in_step + t];
      const Real t0r = a0r + a2r, t0i = a0i + a2i;
      const Real t1r = a0r - a2r, t1i = a0i - a2i;
      const Real t2r = a1r + a3r, t2i = a1i + a3i;
      const Real t3r = a1r - a3r, t3i = a1i - a3i;
      // b1 = t1 + sign·i·t3, b3 = t1 - sign·i·t3.
      put<false>(yr + t, yi + t, t0r + t2r, t0i + t2i, 1, 0);
      put<kTwiddle>(yr + run + t, yi + run + t, t1r - sign * t3i,
                    t1i + sign * t3r, w1r, w1i);
      put<kTwiddle>(yr + 2 * run + t, yi + 2 * run + t, t0r - t2r,
                    t0i - t2i, w2r, w2i);
      put<kTwiddle>(yr + 3 * run + t, yi + 3 * run + t, t1r + sign * t3i,
                    t1i - sign * t3r, w3r, w3i);
    }
  } else {
    // Odd P: pair a_r with a_(P-r). With s_r = a_r + a_(P-r) and
    // d_r = a_r - a_(P-r), b_u = c_u + i e_u and b_(P-u) = c_u - i e_u,
    // where c_u = a_0 + Σ cos(2πru/P) s_r, e_u = sign Σ sin(2πru/P) d_r.
    constexpr int H = (P - 1) / 2;
#pragma omp simd
    for (Index t = 0; t < run; ++t) {
      Real sr[H], si[H], dr[H], di[H];
      Real b0r = xr[t], b0i = xi[t];
#pragma GCC unroll 4
      for (int r = 1; r <= H; ++r) {
        const Real pr = xr[r * in_step + t], pi = xi[r * in_step + t];
        const Real qr = xr[(P - r) * in_step + t];
        const Real qi = xi[(P - r) * in_step + t];
        sr[r - 1] = pr + qr;
        si[r - 1] = pi + qi;
        dr[r - 1] = pr - qr;
        di[r - 1] = pi - qi;
        b0r += sr[r - 1];
        b0i += si[r - 1];
      }
      put<false>(yr + t, yi + t, b0r, b0i, 1, 0);
#pragma GCC unroll 4
      for (int u = 1; u <= H; ++u) {
        const Real* cu = rot + (u - 1) * H;
        const Real* su = rot + H * H + (u - 1) * H;
        Real cr = xr[t], ci = xi[t], er = 0, ei = 0;
#pragma GCC unroll 4
        for (int r = 0; r < H; ++r) {
          cr += cu[r] * sr[r];
          ci += cu[r] * si[r];
          er += su[r] * dr[r];
          ei += su[r] * di[r];
        }
        er *= sign;
        ei *= sign;
        put<kTwiddle>(yr + u * run + t, yi + u * run + t, cr - ei, ci + er,
                      w_r[u], w_i[u]);
        put<kTwiddle>(yr + (P - u) * run + t, yi + (P - u) * run + t,
                      cr + ei, ci - er, w_r[P - u], w_i[P - u]);
      }
    }
  }
}

/// One Stockham stage of radix P over a tile of nt lines.
struct Stage {
  Index p = 0;        ///< radix
  Index m = 0;        ///< sub-transform length after this stage
  Index s = 0;        ///< element stride (product of earlier radices)
  std::size_t tw = 0;   ///< offset of this stage's twiddles (m*(p-1))
  std::size_t rot = 0;  ///< offset of the odd-radix rotation table
};

template <int P>
void stockham_stage(const Stage& st, const Real* xr, const Real* xi,
                    Real* yr, Real* yi, Index nt, const Real* twr,
                    const Real* twi, const Real* rot, Real sign) {
  const Index run = st.s * nt;
  const Index in_step = st.m * run;
  for (Index j = 0; j < st.m; ++j) {
    const Real* x0r = xr + j * run;
    const Real* x0i = xi + j * run;
    Real* y0r = yr + P * j * run;
    Real* y0i = yi + P * j * run;
    if (j == 0) {
      stockham_block<P, false>(x0r, x0i, in_step, y0r, y0i, run, nullptr,
                               nullptr, rot, sign);
    } else {
      stockham_block<P, true>(x0r, x0i, in_step, y0r, y0i, run,
                              twr + j * (P - 1), twi + j * (P - 1), rot,
                              sign);
    }
  }
}

/// Cache-blocked strided gather into the element-major split-complex
/// tile: re/im[j*nt + t] = src[t*dist + j*stride].
void gather_tile(const Complex* src, Index nt, Index n, Index stride,
                 Index dist, Real* re, Real* im) {
  constexpr Index kBlk = 16;
  for (Index j0 = 0; j0 < n; j0 += kBlk) {
    const Index j1 = std::min(j0 + kBlk, n);
    for (Index t0 = 0; t0 < nt; t0 += kBlk) {
      const Index t1 = std::min(t0 + kBlk, nt);
      for (Index j = j0; j < j1; ++j) {
        const Complex* s = src + j * stride;
        Real* rrow = re + j * nt;
        Real* irow = im + j * nt;
        for (Index t = t0; t < t1; ++t) {
          const Complex v = s[t * dist];
          rrow[t] = v.real();
          irow[t] = v.imag();
        }
      }
    }
  }
}

void scatter_tile(Complex* dst, Index nt, Index n, Index stride, Index dist,
                  const Real* re, const Real* im) {
  constexpr Index kBlk = 16;
  for (Index j0 = 0; j0 < n; j0 += kBlk) {
    const Index j1 = std::min(j0 + kBlk, n);
    for (Index t0 = 0; t0 < nt; t0 += kBlk) {
      const Index t1 = std::min(t0 + kBlk, nt);
      for (Index j = j0; j < j1; ++j) {
        Complex* d = dst + j * stride;
        const Real* rrow = re + j * nt;
        const Real* irow = im + j * nt;
        for (Index t = t0; t < t1; ++t) {
          d[t * dist] = Complex(rrow[t], irow[t]);
        }
      }
    }
  }
}

std::vector<Complex> make_twiddles(Index n, int sign) {
  std::vector<Complex> tw(static_cast<std::size_t>(n / 2));
  for (Index k = 0; k < n / 2; ++k) {
    const Real angle = sign * 2.0 * kPi * static_cast<Real>(k) /
                       static_cast<Real>(n);
    tw[static_cast<std::size_t>(k)] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

/// Grow-only per-thread scratch for the tiles. Plans are shared between
/// threads (OpenMP teams and par::run ranks), so the scratch is owned by
/// the calling thread rather than the plan.
Real* tile_scratch(std::size_t count) {
  thread_local std::vector<Real> scratch;
  if (scratch.size() < count) scratch.resize(count);
  return scratch.data();
}

}  // namespace

bool is_power_of_two(Index n) { return n >= 1 && (n & (n - 1)) == 0; }

Index next_power_of_two(Index n) {
  Index p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool worth_a_team(Index count, Index n) {
  return !in_parallel() && double(count) * double(n) > 16384.0;
}

struct Fft1D::Impl {
  enum class Kind { kPow2, kStockham, kBluestein };

  Index n = 0;
  Kind kind = Kind::kPow2;

  // Power-of-two path.
  std::vector<Complex> tw_fwd;
  std::vector<Complex> tw_bwd;

  // Stockham path: stages, split twiddles (the inverse ones are the
  // conjugates) and the odd-radix rotation tables.
  std::vector<Stage> stages;
  std::vector<Real> st_twr, st_twi, st_twi_bwd, st_rot;

  // Bluestein path.
  Index m = 0;                      // padded power-of-two length >= 2n-1
  std::vector<Complex> chirp;       // w_k = exp(-i π k² / n)
  std::vector<Complex> b_spectrum;  // FFT of the chirp kernel
  std::vector<Complex> m_tw_fwd;
  std::vector<Complex> m_tw_bwd;

  /// Rows of per-line work space next to the tile: the Stockham
  /// ping-pong buffer or the padded Bluestein lines.
  Index work_rows() const {
    return kind == Kind::kStockham ? n : kind == Kind::kBluestein ? m : 0;
  }

  /// True if every prime factor of n is in kRadices.
  static bool is_smooth(Index n) {
    for (const Index p : kRadices) {
      while (n % p == 0) n /= p;
    }
    return n == 1;
  }

  /// Splits a smooth n into kRadices stages and tabulates them.
  void plan_stockham() {
    // Sizes are bounded: every stage at least halves the remaining
    // length, so there are < 64 stages and Σ m·(p-1) < 2n twiddles; an
    // odd stage adds (p-1)²/2 <= 18 rotation entries.
    stages.reserve(64);
    st_twr.reserve(static_cast<std::size_t>(2 * n));
    st_twi.reserve(static_cast<std::size_t>(2 * n));
    st_twi_bwd.reserve(static_cast<std::size_t>(2 * n));
    st_rot.reserve(64 * 18);
    Index rest = n;
    Index s = 1;
    for (const Index p : kRadices) {
      while (rest % p == 0) {
        Stage st;
        st.p = p;
        st.m = rest / p;
        st.s = s;
        st.tw = st_twr.size();
        for (Index j = 0; j < st.m; ++j) {
          for (Index u = 1; u < p; ++u) {
            const Complex w = unit_root(j * u, rest);
            st_twr.push_back(w.real());
            st_twi.push_back(w.imag());
            st_twi_bwd.push_back(-w.imag());
          }
        }
        st.rot = st_rot.size();
        if (p % 2 == 1) {
          const Index h = (p - 1) / 2;
          for (const bool sine : {false, true}) {
            for (Index u = 1; u <= h; ++u) {
              for (Index r = 1; r <= h; ++r) {
                // cos/sin(2π r u/p) = Re/-Im of exp(-2πi r u/p).
                const Complex w = unit_root(r * u, p);
                st_rot.push_back(sine ? -w.imag() : w.real());
              }
            }
          }
        }
        stages.push_back(st);
        rest /= p;
        s *= p;
      }
    }
  }

  void stockham_tile(Real*& re, Real*& im, Index nt, bool inverse,
                     Real*& wr, Real*& wi) const {
    const Real sign = inverse ? Real{1} : Real{-1};
    const std::vector<Real>& twi_table = inverse ? st_twi_bwd : st_twi;
    for (const Stage& st : stages) {
      const Real* twr = st_twr.data() + st.tw;
      const Real* twi = twi_table.data() + st.tw;
      const Real* rot = st_rot.data() + st.rot;
      switch (st.p) {
        case 2: stockham_stage<2>(st, re, im, wr, wi, nt, twr, twi, rot, sign); break;
        case 3: stockham_stage<3>(st, re, im, wr, wi, nt, twr, twi, rot, sign); break;
        case 4: stockham_stage<4>(st, re, im, wr, wi, nt, twr, twi, rot, sign); break;
        case 5: stockham_stage<5>(st, re, im, wr, wi, nt, twr, twi, rot, sign); break;
        default: stockham_stage<7>(st, re, im, wr, wi, nt, twr, twi, rot, sign); break;
      }
      std::swap(re, wr);
      std::swap(im, wi);
    }
  }

  /// Batched Bluestein forward on an element-major tile; work arrays
  /// wr/wi hold the padded length-m lines.
  void forward_bluestein_many(Real* re, Real* im, Index nt, Real* wr,
                              Real* wi) const {
    const Index total = m * nt;
    std::fill(wr, wr + total, Real{0});
    std::fill(wi, wi + total, Real{0});
    for (Index k = 0; k < n; ++k) {
      const Complex c = chirp[static_cast<std::size_t>(k)];
      const Real cr = c.real(), ci = c.imag();
      const Real* xr = re + k * nt;
      const Real* xi = im + k * nt;
      Real* ar = wr + k * nt;
      Real* ai = wi + k * nt;
#pragma omp simd
      for (Index t = 0; t < nt; ++t) {
        ar[t] = xr[t] * cr - xi[t] * ci;
        ai[t] = xr[t] * ci + xi[t] * cr;
      }
    }
    radix2_many(wr, wi, m, nt, m_tw_fwd);
    for (Index k = 0; k < m; ++k) {
      const Complex b = b_spectrum[static_cast<std::size_t>(k)];
      const Real br = b.real(), bi = b.imag();
      Real* ar = wr + k * nt;
      Real* ai = wi + k * nt;
#pragma omp simd
      for (Index t = 0; t < nt; ++t) {
        const Real r = ar[t] * br - ai[t] * bi;
        const Real i = ar[t] * bi + ai[t] * br;
        ar[t] = r;
        ai[t] = i;
      }
    }
    radix2_many(wr, wi, m, nt, m_tw_bwd);
    const Real inv_m = Real{1} / static_cast<Real>(m);
    for (Index k = 0; k < n; ++k) {
      const Complex c = chirp[static_cast<std::size_t>(k)];
      const Real cr = c.real(), ci = c.imag();
      const Real* ar = wr + k * nt;
      const Real* ai = wi + k * nt;
      Real* xr = re + k * nt;
      Real* xi = im + k * nt;
#pragma omp simd
      for (Index t = 0; t < nt; ++t) {
        const Real r = ar[t] * cr - ai[t] * ci;
        const Real i = ar[t] * ci + ai[t] * cr;
        xr[t] = r * inv_m;
        xi[t] = i * inv_m;
      }
    }
  }

  /// One element-major tile, forward or inverse. wr/wi hold work_rows()
  /// rows; on return re/im point at the result (the Stockham ping-pong
  /// may leave it in the work rows).
  void transform_tile(Real*& re, Real*& im, Index nt, bool inverse,
                      Real*& wr, Real*& wi) const {
    const Real inv_n = Real{1} / static_cast<Real>(n);
    switch (kind) {
      case Kind::kPow2:
        radix2_many(re, im, n, nt, inverse ? tw_bwd : tw_fwd);
        if (inverse) scale_many(re, im, n, nt, inv_n);
        return;
      case Kind::kStockham:
        stockham_tile(re, im, nt, inverse, wr, wi);
        if (inverse) scale_many(re, im, n, nt, inv_n);
        return;
      case Kind::kBluestein:
        break;
    }
    if (!inverse) {
      forward_bluestein_many(re, im, nt, wr, wi);
      return;
    }
    // IFFT(x) = conj(FFT(conj(x))) / n.
    const Index total = n * nt;
#pragma omp simd
    for (Index i = 0; i < total; ++i) im[i] = -im[i];
    forward_bluestein_many(re, im, nt, wr, wi);
#pragma omp simd
    for (Index i = 0; i < total; ++i) re[i] *= inv_n;
#pragma omp simd
    for (Index i = 0; i < total; ++i) im[i] = -im[i] * inv_n;
  }
};

Fft1D::Fft1D(Index n) : impl_(std::make_unique<Impl>()) {
  LRT_CHECK(n >= 1, "FFT length must be >= 1, got " << n);
  Impl& p = *impl_;
  p.n = n;
  if (is_power_of_two(n)) {
    p.tw_fwd = make_twiddles(n, -1);
    p.tw_bwd = make_twiddles(n, +1);
    return;
  }
  if (Impl::is_smooth(n)) {
    p.kind = Impl::Kind::kStockham;
    p.plan_stockham();
    return;
  }
  p.kind = Impl::Kind::kBluestein;
  const Index m = next_power_of_two(2 * n - 1);
  p.m = m;
  p.m_tw_fwd = make_twiddles(m, -1);
  p.m_tw_bwd = make_twiddles(m, +1);
  p.chirp.resize(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    // Reduce k² mod 2n before the trig call to keep the argument small for
    // large n (k² overflows Real precision around n ~ 1e8 otherwise).
    const long long k2 = (static_cast<long long>(k) * k) % (2 * n);
    const Real angle = -kPi * static_cast<Real>(k2) / static_cast<Real>(n);
    p.chirp[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), std::sin(angle));
  }
  // Chirp kernel b_k = conj(w_k), wrapped to length m, transformed once.
  std::vector<Real> br(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> bi(static_cast<std::size_t>(m), Real{0});
  for (Index k = 0; k < n; ++k) {
    const Complex value = std::conj(p.chirp[static_cast<std::size_t>(k)]);
    br[static_cast<std::size_t>(k)] = value.real();
    bi[static_cast<std::size_t>(k)] = value.imag();
    if (k > 0) {
      br[static_cast<std::size_t>(m - k)] = value.real();
      bi[static_cast<std::size_t>(m - k)] = value.imag();
    }
  }
  radix2_many(br.data(), bi.data(), m, 1, p.m_tw_fwd);
  p.b_spectrum.resize(static_cast<std::size_t>(m));
  for (std::size_t k = 0; k < br.size(); ++k) {
    p.b_spectrum[k] = Complex(br[k], bi[k]);
  }
}

Fft1D::~Fft1D() = default;
Fft1D::Fft1D(Fft1D&&) noexcept = default;
Fft1D& Fft1D::operator=(Fft1D&&) noexcept = default;

Index Fft1D::size() const { return impl_->n; }

void Fft1D::forward(Complex* x) const {
  transform_many(x, 1, 1, impl_->n, /*inverse=*/false);
}

void Fft1D::inverse(Complex* x) const {
  transform_many(x, 1, 1, impl_->n, /*inverse=*/true);
}

void Fft1D::transform_many(Complex* base, Index count, Index stride,
                           Index dist, bool inverse) const {
  const Index n = impl_->n;
  LRT_CHECK(count >= 0, "bad batch count " << count);
  LRT_CHECK(stride >= 1, "bad element stride " << stride);
  LRT_CHECK(count <= 1 || dist >= 1, "bad line distance " << dist);
  if (count == 0 || n == 1) return;  // length-1 transforms are identities

  static obs::Counter& batches = obs::counter("fft.fft1d.batches");
  static obs::Counter& lines = obs::counter("fft.fft1d.lines");
  batches.add(1);
  lines.add(count);

  // Tile so one split-complex tile plus its work rows stays
  // cache-resident: ~2 * 8 bytes * tile * (n + work_rows).
  const Index rows = n + impl_->work_rows();
  const Index tile = std::clamp<Index>(Index{8192} / rows, Index{4}, Index{32});
  const auto tile_size = static_cast<std::size_t>(tile);
  const std::size_t scratch =
      2 * tile_size * static_cast<std::size_t>(rows);

  auto run_tiles = [&](Index l_begin, Index l_end) {
    Real* buf = tile_scratch(scratch);
    for (Index l0 = l_begin; l0 < l_end; l0 += tile) {
      const Index nt = std::min(tile, count - l0);
      Real* re = buf;
      Real* im = re + tile_size * static_cast<std::size_t>(n);
      Real* wr = im + tile_size * static_cast<std::size_t>(n);
      Real* wi = wr + tile_size * static_cast<std::size_t>(rows - n);
      Complex* src = base + l0 * dist;
      gather_tile(src, nt, n, stride, dist, re, im);
      impl_->transform_tile(re, im, nt, inverse, wr, wi);
      scatter_tile(src, nt, n, stride, dist, re, im);
    }
  };

  if (count <= tile || !worth_a_team(count, n)) {
    run_tiles(0, count);
    return;
  }
  const Index num_tiles = (count + tile - 1) / tile;
#pragma omp parallel for schedule(static)
  for (Index b = 0; b < num_tiles; ++b) {
    run_tiles(b * tile, std::min(count, (b + 1) * tile));
  }
}

void Fft1D::forward_many(Complex* base, Index count, Index stride,
                         Index dist) const {
  transform_many(base, count, stride, dist, /*inverse=*/false);
}

void Fft1D::inverse_many(Complex* base, Index count, Index stride,
                         Index dist) const {
  transform_many(base, count, stride, dist, /*inverse=*/true);
}

void fft_forward(Complex* x, Index n) { Fft1D(n).forward(x); }

void fft_inverse(Complex* x, Index n) { Fft1D(n).inverse(x); }

}  // namespace lrt::fft
