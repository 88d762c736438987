// FFT tests: delta/plane-wave closed forms, round trips, Parseval,
// linearity, accuracy against a naive DFT on the power-of-two, Stockham
// mixed-radix and Bluestein paths, 3-D transforms.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/fft3d.hpp"

namespace lrt::fft {
namespace {

using constants::kTwoPi;

TEST(Fft1D, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(96));
  EXPECT_EQ(next_power_of_two(17), 32);
  EXPECT_EQ(next_power_of_two(1), 1);
}

TEST(Fft1D, DeltaTransformsToConstant) {
  for (const Index n : {8, 12, 17, 104}) {
    std::vector<Complex> x(static_cast<std::size_t>(n), Complex{0, 0});
    x[0] = Complex{1, 0};
    Fft1D(n).forward(x.data());
    for (Index k = 0; k < n; ++k) {
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].real(), 1.0, 1e-12) << n;
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].imag(), 0.0, 1e-12);
    }
  }
}

TEST(Fft1D, PlaneWaveTransformsToDelta) {
  // x_j = exp(2πi m j / n) -> X_k = n δ_{k, -m mod n} for forward
  // convention exp(-2πi jk/n).
  for (const Index n : {16, 15}) {
    const Index m = 3;
    std::vector<Complex> x(static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j) {
      const Real angle = kTwoPi * m * j / static_cast<Real>(n);
      x[static_cast<std::size_t>(j)] = Complex(std::cos(angle), std::sin(angle));
    }
    Fft1D(n).forward(x.data());
    for (Index k = 0; k < n; ++k) {
      const Real expected = (k == m) ? static_cast<Real>(n) : 0.0;
      EXPECT_NEAR(x[static_cast<std::size_t>(k)].real(), expected, 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<Index> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const Index n = GetParam();
  lrt::Rng rng(static_cast<unsigned>(n));
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const std::vector<Complex> original = x;
  const Fft1D plan(n);
  plan.forward(x.data());
  plan.inverse(x.data());
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].real(),
                original[static_cast<std::size_t>(i)].real(), 1e-10);
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].imag(),
                original[static_cast<std::size_t>(i)].imag(), 1e-10);
  }
}

// Radix-2 sizes, Stockham sizes (smooth: factors 2, 3, 5, 7 only) and
// Bluestein sizes (17, and the paper's grid dimensions 104 = 8·13 and
// 166 = 2·83).
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values<Index>(1, 2, 4, 8, 64, 3, 5, 7, 12,
                                                  6, 10, 14, 15, 18, 20, 24,
                                                  28, 30, 36, 45, 60, 84, 120,
                                                  17, 104, 166, 1000));

/// Relative l2 error of forward and inverse against an O(n²) DFT summed
/// in long double.
class FftNaiveDft : public ::testing::TestWithParam<Index> {};

TEST_P(FftNaiveDft, MatchesNaiveDft) {
  const Index n = GetParam();
  lrt::Rng rng(static_cast<unsigned>(n + 11));
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const Fft1D plan(n);
  for (const int sign : {-1, +1}) {
    std::vector<Complex> got = x;
    if (sign < 0) {
      plan.forward(got.data());
    } else {
      plan.inverse(got.data());
    }
    const long double pi = 3.141592653589793238462643383279502884L;
    long double err2 = 0, ref2 = 0;
    for (Index k = 0; k < n; ++k) {
      long double re = 0, im = 0;
      for (Index j = 0; j < n; ++j) {
        const long double angle = sign * 2 * pi *
                                  static_cast<long double>((j * k) % n) /
                                  static_cast<long double>(n);
        const long double c = std::cos(angle), s = std::sin(angle);
        const Complex v = x[static_cast<std::size_t>(j)];
        re += v.real() * c - v.imag() * s;
        im += v.real() * s + v.imag() * c;
      }
      if (sign > 0) {
        re /= n;
        im /= n;
      }
      const Complex g = got[static_cast<std::size_t>(k)];
      err2 += (g.real() - re) * (g.real() - re) + (g.imag() - im) * (g.imag() - im);
      ref2 += re * re + im * im;
    }
    EXPECT_LT(std::sqrt(static_cast<double>(err2 / ref2)), 1e-13)
        << "n=" << n << " sign=" << sign;
  }
}

// Every Stockham radix (4, 2, 3, 5, 7) alone and mixed, odd powers of the
// odd radices, plus radix-2 and Bluestein lengths for comparison.
INSTANTIATE_TEST_SUITE_P(Sizes, FftNaiveDft,
                         ::testing::Values<Index>(2, 4, 16, 3, 5, 7, 6, 9, 10,
                                                  12, 14, 15, 21, 25, 35, 49,
                                                  60, 84, 105, 120, 210, 343,
                                                  17, 104, 166));

TEST(Fft1D, ParsevalHolds) {
  const Index n = 60;
  lrt::Rng rng(2);
  std::vector<Complex> x(static_cast<std::size_t>(n));
  Real time_energy = 0;
  for (auto& v : x) {
    v = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(v);
  }
  Fft1D(n).forward(x.data());
  Real freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-8 * time_energy * n);
}

TEST(Fft1D, LinearityOfTransform) {
  const Index n = 24;
  lrt::Rng rng(3);
  std::vector<Complex> a(static_cast<std::size_t>(n)), b = a, sum = a;
  for (Index i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = Complex(rng.normal(), rng.normal());
    b[static_cast<std::size_t>(i)] = Complex(rng.normal(), rng.normal());
    sum[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] +
                                       Real{2} * b[static_cast<std::size_t>(i)];
  }
  const Fft1D plan(n);
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (Index i = 0; i < n; ++i) {
    const Complex expected = a[static_cast<std::size_t>(i)] +
                             Real{2} * b[static_cast<std::size_t>(i)];
    EXPECT_NEAR(std::abs(sum[static_cast<std::size_t>(i)] - expected), 0.0,
                1e-10);
  }
}

TEST(Fft3D, RoundTripMixedSizes) {
  const Fft3D fft(4, 6, 5);
  lrt::Rng rng(4);
  std::vector<Complex> x(static_cast<std::size_t>(fft.size()));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const std::vector<Complex> original = x;
  fft.forward(x.data());
  fft.inverse(x.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - original[i]), 0.0, 1e-10);
  }
}

TEST(Fft3D, PlaneWaveLandsOnSingleFrequency) {
  const Index n0 = 6, n1 = 4, n2 = 8;
  const Fft3D fft(n0, n1, n2);
  const Index m0 = 2, m1 = 1, m2 = 5;
  std::vector<Complex> x(static_cast<std::size_t>(n0 * n1 * n2));
  for (Index i0 = 0; i0 < n0; ++i0) {
    for (Index i1 = 0; i1 < n1; ++i1) {
      for (Index i2 = 0; i2 < n2; ++i2) {
        const Real angle = kTwoPi * (Real(m0 * i0) / n0 + Real(m1 * i1) / n1 +
                                     Real(m2 * i2) / n2);
        x[static_cast<std::size_t>((i0 * n1 + i1) * n2 + i2)] =
            Complex(std::cos(angle), std::sin(angle));
      }
    }
  }
  fft.forward(x.data());
  const Index hot = (m0 * n1 + m1) * n2 + m2;
  for (Index i = 0; i < n0 * n1 * n2; ++i) {
    const Real expected = (i == hot) ? static_cast<Real>(n0 * n1 * n2) : 0.0;
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].real(), expected, 1e-8);
    EXPECT_NEAR(x[static_cast<std::size_t>(i)].imag(), 0.0, 1e-8);
  }
}

TEST(Fft3D, RealConvenienceWrappers) {
  const Fft3D fft(4, 4, 4);
  lrt::Rng rng(5);
  std::vector<Real> input(static_cast<std::size_t>(fft.size()));
  for (auto& v : input) v = rng.normal();
  std::vector<Complex> freq(static_cast<std::size_t>(fft.size()));
  fft.forward(input.data(), freq.data());
  std::vector<Real> output(static_cast<std::size_t>(fft.size()));
  fft.inverse_real(freq.data(), output.data());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(output[i], input[i], 1e-10);
  }
}

TEST(Fft1D, RejectsBadLength) {
  EXPECT_THROW(Fft1D(0), lrt::Error);
}

}  // namespace
}  // namespace lrt::fft
