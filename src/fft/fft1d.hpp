// One-dimensional complex FFT.
//
// Every transform runs batched on element-major split-complex tiles
// (docs/PERFORMANCE.md §2), with one of three kernels picked by length:
// power-of-two lengths use an iterative radix-2 Cooley-Tukey transform,
// lengths whose prime factors are all 2, 3, 5 or 7 use a Stockham
// mixed-radix transform (radix-4 and radix-2 butterflies plus one
// odd-prime butterfly for 3, 5 and 7), and every other length uses
// Bluestein's chirp-z algorithm on a padded radix-2 transform. This
// mirrors what FFTW provides to the paper's code: the plane-wave grids
// are rarely powers of two (104, 166, ...). The per-line
// forward()/inverse() are batches of one, so batched and per-line results
// are bitwise equal.
//
// Normalization: forward is unnormalized, inverse divides by n, so
// inverse(forward(x)) == x.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "common/config.hpp"

namespace lrt::fft {

using Complex = std::complex<Real>;

/// Reusable transform plan for a fixed length (twiddles, Stockham stages
/// and, for lengths with a prime factor above 7, the Bluestein chirp
/// spectra are precomputed). Plans are immutable after construction and
/// may be shared between threads; tile scratch belongs to the calling
/// thread.
class Fft1D {
 public:
  explicit Fft1D(Index n);
  ~Fft1D();

  Fft1D(Fft1D&&) noexcept;
  Fft1D& operator=(Fft1D&&) noexcept;
  Fft1D(const Fft1D&) = delete;
  Fft1D& operator=(const Fft1D&) = delete;

  Index size() const;

  /// In-place forward transform of n contiguous values (a batch of one).
  void forward(Complex* x) const;

  /// In-place inverse transform (normalized by 1/n; a batch of one).
  void inverse(Complex* x) const;

  /// In-place forward transform of `count` lines sharing this plan.
  /// Line t starts at base + t*dist; element j of a line is at offset
  /// j*stride. Lines must not overlap. The batch is gathered into
  /// cache-blocked tile-transposed contiguous buffers so the strided
  /// access cost is paid once per element, and the butterflies run
  /// across lines with unit stride (SIMD) — results are bitwise
  /// identical to calling forward() per line.
  void forward_many(Complex* base, Index count, Index stride,
                    Index dist) const;

  /// Batched inverse transform; same layout contract as forward_many,
  /// bitwise identical to calling inverse() per line.
  void inverse_many(Complex* base, Index count, Index stride,
                    Index dist) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  void transform_many(Complex* base, Index count, Index stride, Index dist,
                      bool inverse) const;
};

/// One-shot convenience transforms.
void fft_forward(Complex* x, Index n);
void fft_inverse(Complex* x, Index n);

/// True if n is a power of two (n >= 1).
bool is_power_of_two(Index n);

/// Smallest power of two >= n.
Index next_power_of_two(Index n);

}  // namespace lrt::fft
