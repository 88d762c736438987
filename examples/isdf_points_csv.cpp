// Interpolation-point visualization (paper Fig 2 analog).
//
// Builds localized orbitals, computes the pair-product weight function
// w(r) (Eq 14), runs weighted K-Means, and writes two CSVs:
//  - a z-slice of the projected weight (the "excitation wavefunction
//    projection"), and
//  - the 3-D coordinates of the chosen interpolation points.
// Plot them together to reproduce the red-dots-on-density picture.
//
//   ./isdf_points_csv [--grid 16] [--nmu 15] [--out-prefix fig2]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dft/synthetic.hpp"
#include "isdf/kmeans_points.hpp"
#include "kmeans/kmeans.hpp"

using namespace lrt;

int main(int argc, char** argv) {
  CliParser cli("K-Means interpolation point visualization (Fig 2)");
  cli.add("grid", "16", "grid points per axis")
      .add("nv", "6", "valence orbitals")
      .add("nc", "4", "conduction orbitals")
      .add("nmu", "15", "interpolation points (paper Fig 2 uses 15)")
      .add("out-prefix", "fig2", "CSV output prefix");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const Index n = cli.get_index("grid");
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(10.0), {n, n, n});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 6;
  sopts.seed = 2024;
  const dft::SyntheticOrbitals orbs = dft::make_synthetic_orbitals(
      g, cli.get_index("nv"), cli.get_index("nc"), sopts);

  const std::vector<Real> weights =
      kmeans::pair_weights(orbs.psi_v.view(), orbs.psi_c.view());

  const isdf::KmeansPointResult km = isdf::select_points_kmeans(
      g, orbs.psi_v.view(), orbs.psi_c.view(), cli.get_index("nmu"), {});
  std::printf("K-Means: %td iterations, %td grid points pruned of %td\n",
              km.kmeans_iterations, km.num_pruned, g.size());

  const std::string prefix = cli.get("out-prefix");

  // (1) Weight projected along z (sum over z-planes) on the x-y grid.
  {
    Table t("pair-product weight, z-projection", {"x", "y", "weight"});
    for (Index ix = 0; ix < n; ++ix) {
      for (Index iy = 0; iy < n; ++iy) {
        Real sum = 0;
        for (Index iz = 0; iz < n; ++iz) {
          sum += weights[static_cast<std::size_t>(g.flat_index(ix, iy, iz))];
        }
        const grid::Vec3 r = g.position(g.flat_index(ix, iy, 0));
        t.row().cell(r[0], 3).cell(r[1], 3).cell(sum, 6);
      }
    }
    t.write_csv(prefix + "_weight_xy.csv");
    std::printf("wrote %s_weight_xy.csv\n", prefix.c_str());
  }

  // (2) Interpolation point coordinates.
  {
    Table t("K-Means interpolation points", {"x", "y", "z", "weight"});
    for (const Index p : km.points) {
      const grid::Vec3 r = g.position(p);
      t.row()
          .cell(r[0], 3)
          .cell(r[1], 3)
          .cell(r[2], 3)
          .cell(weights[static_cast<std::size_t>(p)], 6);
    }
    t.write_csv(prefix + "_points.csv");
    std::printf("wrote %s_points.csv (%zu points)\n", prefix.c_str(),
                km.points.size());
  }
  return 0;
}
