#include "tddft/kernel.hpp"

#include <optional>

#include "common/error.hpp"
#include "dft/xc.hpp"
#include "fft/real_columns.hpp"
#include "la/blas.hpp"
#include "obs/obs.hpp"
#include "obs/phase_registry.hpp"
#include "par/pipeline.hpp"
#include "par/transpose.hpp"

namespace lrt::tddft {

HxcKernel::HxcKernel(const grid::RealSpaceGrid& grid,
                     const grid::GVectors& gvectors,
                     std::vector<Real> ground_density, bool include_xc)
    : nr_(grid.size()),
      dv_(grid.dv()),
      poisson_(fft::Fft3D(grid.shape()[0], grid.shape()[1], grid.shape()[2]),
               gvectors.g2_table()) {
  LRT_CHECK(static_cast<Index>(ground_density.size()) == nr_,
            "density size mismatch");
  if (include_xc) {
    fxc_ = dft::lda_fxc_array(ground_density);
  } else {
    fxc_.assign(static_cast<std::size_t>(nr_), Real{0});
  }
}

void HxcKernel::apply(la::RealConstView f, la::RealView out) const {
  LRT_CHECK(f.rows() == nr_ && out.rows() == nr_ && f.cols() == out.cols(),
            "kernel apply shape mismatch");
  // Hartree through 4π/G², two real columns per transform, plus the
  // diagonal f_xc term in the same write-out pass.
  fft::apply_real_multiplier(
      poisson_.fft(), f.cols(), f.data(), f.ld(), out.data(), out.ld(),
      [this](Index g) { return poisson_.kernel(g); }, fxc_.data());
}

la::RealMatrix kernel_projection(const HxcKernel& kernel,
                                 la::RealConstView rows, par::Comm* comm,
                                 Index pipeline_chunk) {
  // Four slices: a quarter of f_Hxc F alive at a time, for one alltoallv
  // each way per slice.
  constexpr Index kSlices = 4;
  const Index k = rows.cols();
  const par::ColumnSlices slices(k, comm != nullptr ? comm->size() : 1,
                                 kSlices);

  // Row j of `mt` is (f_Hxc F e_j)ᵀ F, so mt is the partial of Mᵀ. Every
  // element sums the same products in the same k order as gemm(Fᵀ, f_Hxc
  // F)'s packed path (gemm_many always packs; a product commutes
  // exactly), so mt is that product's transpose bit for bit.
  la::RealMatrix mt(k, k);
  std::optional<par::SliceExchange> exchange;
  if (comm != nullptr) exchange.emplace(*comm, kernel.grid_size(), slices);
  la::RealMatrix serial_image;
  std::vector<la::GemmBatchItem> items;
  for (Index s = 0; s < kSlices; ++s) {
    // This rank's rows of f_Hxc F over slice s, rank 0's run first.
    la::RealConstView image;
    if (exchange) {
      la::RealView cols;
      {
        const obs::Span span(obs::phase::kMpi);
        cols = exchange->to_cols(s, rows);
      }
      {
        const obs::Span span(obs::phase::kFft);
        kernel.apply(cols, cols);
      }
      const obs::Span span(obs::phase::kMpi);
      image = exchange->to_rows(s, cols);
    } else {
      serial_image.resize(rows.rows(), slices.count(0, s));
      const obs::Span span(obs::phase::kFft);
      kernel.apply(rows.cols_block(slices.offset(0, s), slices.count(0, s)),
                   serial_image.view());
      image = serial_image.view();
    }
    {
      const obs::Span span(obs::phase::kGemm);
      items.clear();
      Index c0 = 0;
      for (int q = 0; q < slices.ranks(); ++q) {
        const Index w = slices.count(q, s);
        if (w == 0) continue;
        items.push_back({image.cols_block(c0, w),
                         mt.view().rows_block(slices.offset(q, s), w)});
        c0 += w;
      }
      la::gemm_many(la::Trans::kYes, la::Trans::kNo, Real{1}, items, rows,
                    Real{0});
    }
  }
  // The slice buffers go before the reduction allocates its own.
  exchange.reset();
  serial_image = la::RealMatrix();

  const obs::Span span(obs::phase::kGemm);
  if (comm != nullptr && pipeline_chunk > 0) {
    par::allreduce_via_row_owners(*comm, mt, pipeline_chunk);
  } else if (comm != nullptr) {
    comm->allreduce(mt.data(), mt.size(), par::ReduceOp::kSum);
  }
  const Real dv = kernel.dv();
  for (Index i = 0; i < k; ++i) {
    for (Index j = i; j < k; ++j) {
      const Real avg = Real{0.5} * dv * (mt(i, j) + mt(j, i));
      mt(i, j) = avg;
      mt(j, i) = avg;
    }
  }
  return mt;
}

}  // namespace lrt::tddft
