#include "par/disteig.hpp"

namespace lrt::par {

DistEigResult dist_syev(Comm& comm, const DistMatrix& a) {
  LRT_CHECK(a.global_rows() == a.global_cols(),
            "dist_syev needs a square matrix");
  const Index n = a.global_rows();
  const int p = comm.size();

  // Step 1: convert to the 2-D block-cyclic layout the dense solver wants
  // (pdgemr2d in the paper). Pick a near-square process grid.
  int prow = 1;
  for (int r = 1; r * r <= p; ++r) {
    if (p % r == 0) prow = r;
  }
  const int pcol = p / prow;
  const Index block = std::max<Index>(1, std::min<Index>(64, n / p + 1));
  const Layout cyclic =
      Layout::block_cyclic_2d(n, n, prow, pcol, block, block);
  const DistMatrix a_cyclic = redistribute(comm, a, cyclic);

  // Step 2: factorize (gathered SYEVD stand-in).
  la::RealMatrix full = a_cyclic.gather(comm, /*root=*/0);
  DistEigResult result{std::vector<Real>(static_cast<std::size_t>(n)),
                       DistMatrix(a.layout(), comm.rank())};
  DistMatrix vec_cyclic(cyclic, comm.rank());
  if (comm.rank() == 0) {
    la::EigResult eig = la::syev(full.view());
    result.values = std::move(eig.values);
    // Scatter eigenvectors into the cyclic layout from root.
    vec_cyclic = DistMatrix::scatter(comm, cyclic, eig.vectors.view(), 0);
  } else {
    la::RealMatrix empty;
    vec_cyclic = DistMatrix::scatter(comm, cyclic, empty.view(), 0);
  }
  comm.bcast(result.values.data(), n, /*root=*/0);

  // Step 3: convert the eigenvectors back to the caller's layout.
  result.vectors = redistribute(comm, vec_cyclic, a.layout());
  return result;
}

}  // namespace lrt::par
