#include "par/dist_lobpcg.hpp"

#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace lrt::par {

la::LobpcgResult dist_lobpcg(Comm& comm, const DistBlockOperator& apply_h,
                             const DistBlockPreconditioner& preconditioner,
                             la::RealMatrix x0_local,
                             const la::LobpcgOptions& options) {
  const obs::Span span("par.dist_lobpcg");
  la::LobpcgResult result = la::lobpcg_iterate(
      apply_h, preconditioner, std::move(x0_local), options,
      [&comm](Real* data, Index count) {
        comm.allreduce(data, count, ReduceOp::kSum);
      });
  static obs::Counter& iterations = obs::counter("par.dist_lobpcg.iterations");
  iterations.add(result.iterations);
  return result;
}

}  // namespace lrt::par
