// Paper Table 3: time spent selecting ISDF interpolation points —
// QRCP vs K-Means — plus the seeding ablation of DESIGN.md §5.
//
// The paper sweeps Nμ ∈ {512, 1024, 2048} on Si64 with one core; we sweep
// a scaled ladder on the synthetic silicon analog. The claim under test is
// the *ratio*: K-Means selects points an order of magnitude faster, and
// the resulting ISDF accuracy matches QRCP's.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "isdf/interpolation.hpp"
#include "isdf/pairproduct.hpp"
#include "isdf/kmeans_points.hpp"
#include "isdf/qrcp_points.hpp"
#include "obs/bench_report.hpp"

using namespace lrt;

int main() {
  // One mid-sized problem, like the paper's fixed Si64 test system.
  bench::Workload w{"Si16*", 24, 18, 18, 13.0, 16};
  const tddft::CasidaProblem problem = bench::make_workload(w);
  std::printf("system: %s  Nr=%td  Nv=%td Nc=%td (Ncv=%td)\n\n",
              w.label.c_str(), problem.nr(), problem.nv(), problem.nc(),
              problem.ncv());

  obs::BenchReport report("table3");
  report.meta("workload", w.label);
  report.meta("table", "3");

  Table table("Table 3 (scaled): interpolation point selection time [s]",
              {"Nmu", "QRCP (plain)", "QRCP (randomized)", "K-Means",
               "speedup KM vs QRCP", "ISDF err QRCP", "ISDF err KM"});

  for (const Index nmu : {64, 128, 256}) {
    isdf::QrcpPointOptions plain;
    plain.randomized = false;
    Timer t1;
    const auto p_qrcp = isdf::select_points_qrcp(
        problem.psi_v.view(), problem.psi_c.view(), nmu, plain);
    const double qrcp_s = t1.seconds();

    Timer t2;
    const auto p_rand = isdf::select_points_qrcp(
        problem.psi_v.view(), problem.psi_c.view(), nmu, {});
    const double rand_s = t2.seconds();
    (void)p_rand;

    Timer t3;
    const auto km = isdf::select_points_kmeans(
        problem.grid, problem.psi_v.view(), problem.psi_c.view(), nmu, {});
    const double km_s = t3.seconds();

    const auto fit = [&](const std::vector<Index>& points) {
      return isdf::interpolation_vectors(
          problem.psi_v.view(), problem.psi_c.view(),
          isdf::sample_rows(problem.psi_v.view(), points).view(),
          isdf::sample_rows(problem.psi_c.view(), points).view());
    };
    const la::RealMatrix theta_qrcp = fit(p_qrcp);
    const Real err_qrcp = isdf::isdf_relative_error(
        problem.psi_v.view(), problem.psi_c.view(), p_qrcp,
        theta_qrcp.view());
    const la::RealMatrix theta_km = fit(km.points);
    const Real err_km = isdf::isdf_relative_error(
        problem.psi_v.view(), problem.psi_c.view(), km.points,
        theta_km.view());

    table.row()
        .cell(nmu)
        .cell(qrcp_s, 3)
        .cell(rand_s, 3)
        .cell(km_s, 3)
        .cell(qrcp_s / km_s, 1)
        .cell(err_qrcp, 4)
        .cell(err_km, 4);

    report.record("nmu=" + std::to_string(nmu))
        .param("nmu", static_cast<long long>(nmu))
        .metric("qrcp_seconds", qrcp_s)
        .metric("qrcp_randomized_seconds", rand_s)
        .metric("kmeans_seconds", km_s)
        .metric("speedup_kmeans_vs_qrcp", qrcp_s / km_s)
        .metric("isdf_err_qrcp", err_qrcp)
        .metric("isdf_err_kmeans", err_km);
  }
  table.print();

  // Seeding ablation (DESIGN.md §5.1): K-Means objective and iteration
  // count under the three seeding policies at fixed Nμ.
  const Index nmu = 128;
  Table ablation("Ablation: K-Means seeding policies (Nmu = 128)",
                 {"seeding", "iterations", "objective", "time [s]"});
  const std::pair<kmeans::Seeding, const char*> modes[] = {
      {kmeans::Seeding::kWeightedKpp, "weighted k-means++"},
      {kmeans::Seeding::kTopWeight, "top-weight (paper)"},
      {kmeans::Seeding::kUniformRandom, "uniform random"},
  };
  for (const auto& [mode, name] : modes) {
    kmeans::KMeansOptions opts;
    opts.seeding = mode;
    Timer t;
    const auto km = isdf::select_points_kmeans(
        problem.grid, problem.psi_v.view(), problem.psi_c.view(), nmu, opts);
    ablation.row()
        .cell(name)
        .cell(km.kmeans_iterations)
        .cell(km.objective, 5)
        .cell(t.seconds(), 3);
    report.record(std::string("seeding:") + name)
        .param("nmu", static_cast<long long>(nmu))
        .param("seeding", std::string(name))
        .metric("iterations", static_cast<double>(km.kmeans_iterations))
        .metric("objective", km.objective)
        .metric("seconds", t.seconds());
  }
  ablation.print();

  // Pruning ablation: weight threshold vs kept points and time.
  Table pruning("Ablation: weight-threshold pruning (Nmu = 128)",
                {"threshold", "kept points (Nr')", "time [s]"});
  for (const Real threshold : {0.0, 1e-8, 1e-6, 1e-4, 1e-3}) {
    kmeans::KMeansOptions opts;
    opts.weight_threshold = threshold;
    Timer t;
    const auto km = isdf::select_points_kmeans(
        problem.grid, problem.psi_v.view(), problem.psi_c.view(), nmu, opts);
    pruning.row()
        .cell(format_real(threshold, 8))
        .cell(problem.nr() - km.num_pruned)
        .cell(t.seconds(), 3);
    report.record("pruning:" + format_real(threshold, 8))
        .param("nmu", static_cast<long long>(nmu))
        .param("weight_threshold", static_cast<double>(threshold))
        .metric("kept_points", static_cast<double>(problem.nr() - km.num_pruned))
        .metric("seconds", t.seconds());
  }
  pruning.print();
  if (report.write()) {
    std::printf("\nwrote %s\n", report.default_path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n",
                 report.default_path().c_str());
    return 1;
  }
  return 0;
}
