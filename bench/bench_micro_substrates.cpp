// Hot-kernel micro substrates: packed GEMM, batched 3-D FFT, the dense
// small kernels (right-side triangular solve, syev, sygv), the Θ-fit
// shapes of the blocked Cholesky and solve_gram_from_right, pruned
// K-Means — seconds, GFLOP/s, and bytes/point per kernel, emitted as
// BENCH_micro.json (schema lrt.bench/1).
//
// Flags:
//   --compare   also time the pre-PR baselines (gemm_reference, the old
//               per-line Fft3D algorithm, exact K-Means assignment) and
//               report speedup_vs_ref on each new-path record — this is
//               the committed evidence for the PR-4 acceptance numbers;
//   --smoke     tiny sizes for the CI bench-smoke stage (seconds total);
//   --reps N    best-of-N timing (default 3, smoke 2).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "kmeans/kmeans.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/lstsq.hpp"
#include "la/qr.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"

using namespace lrt;

namespace {

struct Options {
  bool compare = false;
  bool smoke = false;
  int reps = 0;  // 0 = pick by mode
};

template <typename F>
double best_of(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

// ----- GEMM ----------------------------------------------------------------

void bench_gemm(const Options& opt, Table& table, obs::BenchReport& report) {
  // gemm, gram(A) with A k x m (m = n), or gemm_many over `items` A
  // operands that share op(B).
  enum class Op { kGemm, kGram, kMany };
  struct Case {
    Index m, n, k;
    la::Trans ta, tb;
    const char* label;
    Op op = Op::kGemm;
    Index items = 1;
  };
  constexpr la::Trans kN = la::Trans::kNo, kT = la::Trans::kYes;
  // The SCF band LOBPCG's block products at n = 1728 (Xᵀ Y, gram, X C
  // for block widths 24 and 72) and the Casida kernel projection's batch
  // at 4 ranks.
  const Case tn_skinny{24, 24, 1728, kT, kN, "gemm.tn.24x24x1728"};
  std::vector<Case> cases;
  if (opt.smoke) {
    cases = {{48, 48, 48, kN, kN, "gemm.nn.48"},
             {64, 64, 64, kN, kN, "gemm.nn.64"},
             tn_skinny};
  } else {
    cases = {{128, 128, 128, kN, kN, "gemm.nn.128"},
             {256, 256, 256, kN, kN, "gemm.nn.256"},
             {512, 512, 512, kN, kN, "gemm.nn.512"},
             {256, 256, 256, kT, kN, "gemm.tn.256"},
             {256, 256, 256, kN, kT, "gemm.nt.256"},
             tn_skinny,
             {24, 24, 1728, kT, kN, "gram.1728x24", Op::kGram},
             {72, 72, 1728, kT, kN, "gram.1728x72", Op::kGram},
             {1728, 24, 24, kN, kN, "gemm.nn.1728x24x24"},
             {1728, 72, 72, kN, kN, "gemm.nn.1728x72x72"},
             {27, 432, 1024, kT, kN, "gemm_many.tn.4x27x432x1024", Op::kMany,
              4}};
  }
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);

  for (const Case& c : cases) {
    Rng rng(static_cast<unsigned>(c.m + 2 * c.k));
    std::vector<la::RealMatrix> as;
    for (Index q = 0; q < c.items; ++q) {
      as.push_back((c.ta == la::Trans::kNo)
                       ? la::RealMatrix::random_uniform(c.m, c.k, rng)
                       : la::RealMatrix::random_uniform(c.k, c.m, rng));
    }
    const la::RealMatrix& a = as.front();
    const la::RealMatrix b =
        (c.tb == la::Trans::kNo)
            ? la::RealMatrix::random_uniform(c.k, c.n, rng)
            : la::RealMatrix::random_uniform(c.n, c.k, rng);
    // gram's second operand is A itself.
    const la::RealConstView bv = c.op == Op::kGram ? a.view() : b.view();
    std::vector<la::RealMatrix> outs(static_cast<std::size_t>(c.items),
                                     la::RealMatrix(c.m, c.n));
    std::vector<la::GemmBatchItem> batch;
    for (Index q = 0; q < c.items; ++q) {
      batch.push_back({as[q].view(), outs[q].view()});
    }

    const double items = static_cast<double>(c.items);
    const double flops = items * la::gemm_flops(c.m, c.n, c.k);
    // Compulsory traffic per output element: read A and B once, read and
    // write C, amortized over the m*n outputs.
    const double bytes_per_point =
        8.0 *
        (items * static_cast<double>(c.m) * static_cast<double>(c.k) +
         static_cast<double>(c.k) * static_cast<double>(c.n) +
         2.0 * items * static_cast<double>(c.m) * static_cast<double>(c.n)) /
        (items * static_cast<double>(c.m) * static_cast<double>(c.n));

    const double sec_new = best_of(reps, [&] {
      switch (c.op) {
        case Op::kGemm:
          la::gemm(c.ta, c.tb, 1.0, a.view(), bv, 0.0, outs[0].view());
          break;
        case Op::kGram:
          outs[0] = la::gram(a.view());
          break;
        case Op::kMany:
          la::gemm_many(c.ta, c.tb, 1.0, batch, bv, 0.0);
          break;
      }
    });
    double sec_ref = 0;
    if (opt.compare) {
      sec_ref = best_of(reps, [&] {
        for (const la::GemmBatchItem& item : batch) {
          la::gemm_reference(c.ta, c.tb, 1.0, item.a, bv, 0.0, item.c);
        }
      });
    }
    const double gflops_new = flops / sec_new / 1e9;
    table.row()
        .cell(c.label)
        .cell(Index{1})
        .cell(sec_new, 5)
        .cell(gflops_new, 2)
        .cell(bytes_per_point, 1)
        .cell(opt.compare ? format_real(sec_ref / sec_new, 2) + "x" : "-");

    obs::BenchReport::Record& rec = report.record(c.label);
    const char* kernel = c.op == Op::kGram   ? "gram"
                         : c.op == Op::kMany ? "gemm_many"
                                             : "gemm";
    rec.param("kernel", kernel)
        .param("path", "new")
        .param("m", static_cast<long long>(c.m))
        .param("n", static_cast<long long>(c.n))
        .param("k", static_cast<long long>(c.k))
        .param("items", static_cast<long long>(c.items))
        .param("threads", 1LL)
        .metric("seconds_best", sec_new)
        .metric("gflops", gflops_new)
        .metric("bytes_per_point", bytes_per_point);
    if (opt.compare) {
      rec.metric("speedup_vs_ref", sec_ref / sec_new);
      report.record(std::string(c.label) + ".ref")
          .param("kernel", "gemm")
          .param("path", "ref")
          .param("m", static_cast<long long>(c.m))
          .param("n", static_cast<long long>(c.n))
          .param("k", static_cast<long long>(c.k))
          .param("items", static_cast<long long>(c.items))
          .param("threads", 1LL)
          .metric("seconds_best", sec_ref)
          .metric("gflops", flops / sec_ref / 1e9)
          .metric("bytes_per_point", bytes_per_point);
    }
  }
}

// ----- 3-D FFT -------------------------------------------------------------

/// The pre-PR Fft3D algorithm (scalar per-line transforms, per-element
/// strided gather), kept as the --compare baseline.
void reference_fft3d(const fft::Fft1D& plan, Index n, fft::Complex* x,
                     bool inverse) {
  for (Index i0 = 0; i0 < n; ++i0) {
    for (Index i1 = 0; i1 < n; ++i1) {
      fft::Complex* line = x + (i0 * n + i1) * n;
      if (inverse) {
        plan.inverse(line);
      } else {
        plan.forward(line);
      }
    }
  }
  std::vector<fft::Complex> buffer(static_cast<std::size_t>(n));
  for (Index i0 = 0; i0 < n; ++i0) {
    fft::Complex* slab = x + i0 * n * n;
    for (Index i2 = 0; i2 < n; ++i2) {
      for (Index i1 = 0; i1 < n; ++i1) {
        buffer[static_cast<std::size_t>(i1)] = slab[i1 * n + i2];
      }
      if (inverse) {
        plan.inverse(buffer.data());
      } else {
        plan.forward(buffer.data());
      }
      for (Index i1 = 0; i1 < n; ++i1) {
        slab[i1 * n + i2] = buffer[static_cast<std::size_t>(i1)];
      }
    }
  }
  const Index stride0 = n * n;
  for (Index rem = 0; rem < stride0; ++rem) {
    for (Index i0 = 0; i0 < n; ++i0) {
      buffer[static_cast<std::size_t>(i0)] = x[i0 * stride0 + rem];
    }
    if (inverse) {
      plan.inverse(buffer.data());
    } else {
      plan.forward(buffer.data());
    }
    for (Index i0 = 0; i0 < n; ++i0) {
      x[i0 * stride0 + rem] = buffer[static_cast<std::size_t>(i0)];
    }
  }
}

void bench_fft(const Options& opt, Table& table, obs::BenchReport& report) {
  std::vector<Index> sizes;
  if (opt.smoke) {
    sizes = {16, 12};
  } else {
    // 12, 14 and 21 run the Stockham mixed-radix path (12^3 is the Si8
    // SCF grid), and 26 = 2*13 keeps one Bluestein case.
    sizes = {32, 64, 12, 14, 21, 26};
  }
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);

  for (const Index n : sizes) {
    const Index total = n * n * n;
    Rng rng(static_cast<unsigned>(n));
    std::vector<fft::Complex> grid(static_cast<std::size_t>(total));
    for (auto& v : grid) {
      v = fft::Complex(rng.uniform() * 2 - 1, rng.uniform() * 2 - 1);
    }
    const fft::Fft3D fft3(n, n, n);
    std::vector<fft::Complex> work = grid;

    // One forward + one inverse per rep (round-trip, like the Hartree
    // kernel); radix-2 flop model 5 N log2 N per transform.
    const double flops = 2.0 * 5.0 * static_cast<double>(total) *
                         std::log2(static_cast<double>(total));
    // Ideal traffic: 3 axis passes x read+write x 16 bytes, twice.
    const double bytes_per_point = 2.0 * 3.0 * 2.0 * 16.0;

    const double sec_new = best_of(reps, [&] {
      work = grid;
      fft3.forward(work.data());
      fft3.inverse(work.data());
    });
    double sec_ref = 0;
    if (opt.compare) {
      const fft::Fft1D plan(n);
      sec_ref = best_of(reps, [&] {
        work = grid;
        reference_fft3d(plan, n, work.data(), false);
        reference_fft3d(plan, n, work.data(), true);
      });
    }

    const std::string label = "fft.fft3d." + std::to_string(n) + ".t1";
    table.row()
        .cell(label)
        .cell(Index{1})
        .cell(sec_new, 5)
        .cell(flops / sec_new / 1e9, 2)
        .cell(bytes_per_point, 1)
        .cell(opt.compare ? format_real(sec_ref / sec_new, 2) + "x" : "-");

    obs::BenchReport::Record& rec = report.record(label);
    rec.param("kernel", "fft3d")
        .param("path", "new")
        .param("n", static_cast<long long>(n))
        .param("threads", 1LL)
        .metric("seconds_best", sec_new)
        .metric("gflops", flops / sec_new / 1e9)
        .metric("bytes_per_point", bytes_per_point);
    if (opt.compare) {
      rec.metric("speedup_vs_ref", sec_ref / sec_new);
      report.record(label + ".ref")
          .param("kernel", "fft3d")
          .param("path", "ref")
          .param("n", static_cast<long long>(n))
          .param("threads", 1LL)
          .metric("seconds_best", sec_ref)
          .metric("gflops", flops / sec_ref / 1e9)
          .metric("bytes_per_point", bytes_per_point);
    }
  }
}

// ----- dense small kernels ---------------------------------------------------

void bench_dense(const Options& opt, Table& table, obs::BenchReport& report) {
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);
  auto emit = [&](const std::string& label, const char* kernel, Index m,
                  Index n, double seconds, double flops) {
    table.row()
        .cell(label)
        .cell(Index{1})
        .cell(seconds, 5)
        .cell(flops > 0 ? format_real(flops / seconds / 1e9, 2) : "-")
        .cell("-")
        .cell("-");
    obs::BenchReport::Record& rec = report.record(label);
    rec.param("kernel", kernel)
        .param("path", "new")
        .param("m", static_cast<long long>(m))
        .param("n", static_cast<long long>(n))
        .param("threads", 1LL)
        .metric("seconds_best", seconds);
    if (flops > 0) rec.metric("gflops", flops / seconds / 1e9);
  };
  auto spd = [](Index n, Rng& rng) {
    const la::RealMatrix x = la::RealMatrix::random_uniform(2 * n, n, rng);
    la::RealMatrix g = la::gram(x.view());
    for (Index i = 0; i < n; ++i) g(i, i) += 1.0;
    return g;
  };

  // The ISDF Θ fit X (C Cᵀ) = Z Cᵀ: Nμ = 432 against the Si64* analog's
  // Nr = 4096 grid points (smoke: one rank's 1024 of them at 4 ranks).
  {
    const Index n = 432;
    const Index m = opt.smoke ? 1024 : 4096;
    Rng rng(13);
    const la::RealMatrix l = la::cholesky(spd(n, rng).view());
    const la::RealMatrix b = la::RealMatrix::random_uniform(m, n, rng);
    la::RealMatrix x(m, n);
    const double sec = best_of(reps, [&] {
      la::copy<Real>(b.view(), x.view());
      la::solve_right(l.view(), x.view(), la::RightSolve::kCholesky);
    });
    emit("la.trsm.right", "trsm_right", m, n, sec,
         2.0 * static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(n));
  }
  // One rank's Θ fit at 4 ranks: the Nμ = 432 Gram factor and the whole
  // X (C Cᵀ) = Z Cᵀ solve on 1024 grid rows, both above the blocked-path
  // crossover (la/tuning.hpp). Same sizes in --smoke.
  {
    const Index n = 432;
    const Index m = 1024;
    Rng rng(19);
    const la::RealMatrix g = spd(n, rng);
    const la::RealMatrix b = la::RealMatrix::random_uniform(m, n, rng);
    la::RealMatrix l, x;
    const double nd = static_cast<double>(n);
    const double factor_flops = nd * nd * nd / 3.0;
    emit("la.cholesky.432", "cholesky", n, n,
         best_of(reps, [&] { l = la::cholesky(g.view()); }), factor_flops);
    emit("la.solve_gram.1024x432", "solve_gram", m, n,
         best_of(reps,
                 [&] { x = la::solve_gram_from_right(b.view(), g.view()); }),
         factor_flops + 2.0 * static_cast<double>(m) * nd * nd);
  }
  // The Rayleigh-Ritz eigenproblems of a 24-band LOBPCG ([X R P]).
  {
    const Index n = 72;
    Rng rng(17);
    la::RealMatrix a = la::RealMatrix::random_uniform(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    const la::RealMatrix b = spd(n, rng);
    la::EigResult sink;
    emit("la.syev.72", "syev", n, n,
         best_of(reps, [&] { sink = la::syev(a.view()); }), 0);
    emit("la.sygv.72", "sygv", n, n,
         best_of(reps, [&] { sink = la::sygv(a.view(), b.view()); }), 0);
  }
}

// ----- K-Means -------------------------------------------------------------

int bench_kmeans(const Options& opt, Table& table, obs::BenchReport& report) {
  const Index n = opt.smoke ? 1500 : 20000;
  const Index k = opt.smoke ? 8 : 48;
  const int reps = opt.reps > 0 ? opt.reps : (opt.smoke ? 2 : 3);

  // Clustered weights: the regime the paper's pair-product weights are
  // in, and the one pruning exploits.
  Rng rng(9);
  std::vector<grid::Vec3> points;
  std::vector<Real> weights;
  points.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const Real cx = static_cast<Real>(2 + 3 * (i % 3));
    const Real cy = static_cast<Real>(2 + 3 * ((i / 3) % 3));
    const Real cz = static_cast<Real>(2 + 3 * ((i / 9) % 3));
    points.push_back({cx + rng.uniform() - 0.5, cy + rng.uniform() - 0.5,
                      cz + rng.uniform() - 0.5});
    weights.push_back(rng.uniform() + 1e-3);
  }

  kmeans::KMeansOptions opts;
  opts.seeding = kmeans::Seeding::kTopWeight;

  opts.pruned_assignment = false;
  kmeans::KMeansResult exact;
  const double sec_ref = best_of(
      reps, [&] { exact = kmeans::weighted_kmeans(points, weights, k, opts); });

  opts.pruned_assignment = true;
  const long long full_before = obs::counter("kmeans.assign.full").value();
  const long long skip_before = obs::counter("kmeans.assign.skipped").value();
  kmeans::KMeansResult pruned;
  const double sec_new = best_of(
      reps, [&] { pruned = kmeans::weighted_kmeans(points, weights, k, opts); });
  const double full_scans = static_cast<double>(
      obs::counter("kmeans.assign.full").value() - full_before);
  const double skips = static_cast<double>(
      obs::counter("kmeans.assign.skipped").value() - skip_before);
  const double skip_fraction =
      (full_scans + skips) > 0 ? skips / (full_scans + skips) : 0.0;

  if (exact.assignment != pruned.assignment ||
      exact.interpolation_points != pruned.interpolation_points) {
    std::fprintf(stderr,
                 "FATAL: pruned K-Means diverged from the exact path\n");
    return 1;
  }

  // Distance flops: 8 per point-center pair (3 sub, 3 mul, 2 add); the
  // pruned path replaces a k-scan with one distance for skipped points.
  const double pairs_exact = static_cast<double>(exact.iterations) *
                             static_cast<double>(n) * static_cast<double>(k);
  // Effective centroid traffic per point per iteration.
  const double bytes_ref = 24.0 * static_cast<double>(k);
  const double bytes_new = bytes_ref * (1.0 - skip_fraction) + 24.0;

  const std::string label =
      "kmeans.assign." + std::to_string(n) + "x" + std::to_string(k);
  table.row()
      .cell(label)
      .cell(Index{1})
      .cell(sec_new, 5)
      .cell(8.0 * pairs_exact * (1 - skip_fraction) / sec_new / 1e9, 2)
      .cell(bytes_new, 1)
      .cell(format_real(sec_ref / sec_new, 2) + "x");

  obs::BenchReport::Record& rec = report.record(label);
  rec.param("kernel", "kmeans")
      .param("path", "new")
      .param("points", static_cast<long long>(n))
      .param("clusters", static_cast<long long>(k))
      .param("threads", 1LL)
      .metric("seconds_best", sec_new)
      .metric("skip_fraction", skip_fraction)
      .metric("bytes_per_point", bytes_new)
      .metric("iterations", static_cast<double>(pruned.iterations))
      .metric("speedup_vs_ref", sec_ref / sec_new);
  report.record(label + ".ref")
      .param("kernel", "kmeans")
      .param("path", "ref")
      .param("points", static_cast<long long>(n))
      .param("clusters", static_cast<long long>(k))
      .param("threads", 1LL)
      .metric("seconds_best", sec_ref)
      .metric("skip_fraction", 0.0)
      .metric("bytes_per_point", bytes_ref)
      .metric("iterations", static_cast<double>(exact.iterations));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) {
      opt.compare = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--compare] [--smoke] [--reps N]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::BenchReport report("micro");
  report.meta("mode", opt.smoke ? "smoke" : "full");
  report.meta("compare", opt.compare ? "true" : "false");

  Table table("micro substrates (best-of-reps)",
              {"kernel", "threads", "seconds", "GFLOP/s", "bytes/pt",
               "speedup"});
  bench_gemm(opt, table, report);
  bench_fft(opt, table, report);
  bench_dense(opt, table, report);
  // K-Means always compares (the exact path is its reference by
  // definition) and doubles as an exactness assertion.
  if (bench_kmeans(opt, table, report) != 0) return 1;

  table.print();
  if (report.write()) {
    std::printf("\nwrote %s\n", report.default_path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n",
                 report.default_path().c_str());
    return 1;
  }
  return 0;
}
