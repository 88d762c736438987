// GENERATED FILE — DO NOT EDIT.
//
// Registered phase/span name vocabulary, generated from
// src/obs/phases.def by `lrt-analyze gen-phases --write`. The
// phase-registry-sync pass fails CI when this file and the def
// drift apart; the phase-registry pass requires every
// obs::Span literal and every
// `validate_trace --require-phase` argument to name an entry.
#pragma once

#include <cstddef>
#include <string_view>

namespace lrt::obs::phase {

inline constexpr const char* kKmeans = "kmeans";  // K-Means point selection (Fig. 8)
inline constexpr const char* kFft = "fft";  // FFT work, forward+inverse (Fig. 8)
inline constexpr const char* kMpi = "mpi";  // communication: transpose/alltoallv + allreduce (Fig. 8)
inline constexpr const char* kGemm = "gemm";  // dense GEMM + allreduce epilogue (Fig. 8)
inline constexpr const char* kDiag = "diag";  // (dist-)eigensolve / subspace diagonalization (Fig. 8)
inline constexpr const char* kPairProduct = "pair_product";  // orbital pair-product assembly (Fig. 8)
inline constexpr const char* kFftFft3d = "fft.fft3d";  // one 3-D FFT (all pencils)
inline constexpr const char* kFftFft3dAxis0 = "fft.fft3d.axis0";  // 3-D FFT axis-0 pass (stride n1*n2, batched)
inline constexpr const char* kFftFft3dAxis1 = "fft.fft3d.axis1";  // 3-D FFT axis-1 pass (stride n2, per-slab batches)
inline constexpr const char* kFftFft3dAxis2 = "fft.fft3d.axis2";  // 3-D FFT axis-2 pass (contiguous lines, batched)
inline constexpr const char* kIsdfSelectPoints = "isdf.select_points";  // point selection entry (QRCP or K-Means)
inline constexpr const char* kIsdfInterpVectors = "isdf.interp_vectors";  // least-squares interpolation vectors
inline constexpr const char* kIsdfPointsKmeans = "isdf.points.kmeans";  // weighted K-Means selector
inline constexpr const char* kIsdfPointsQrcp = "isdf.points.qrcp";  // QRCP selector
inline constexpr const char* kFtCheckpointSave = "ft.checkpoint.save";  // checkpoint serialization + atomic write
inline constexpr const char* kFtCheckpointLoad = "ft.checkpoint.load";  // checkpoint parse + CRC validation
inline constexpr const char* kKmeansLloyd = "kmeans.lloyd";  // weighted K-Means Lloyd loop (any rank count)
inline constexpr const char* kLaLobpcg = "la.lobpcg";  // serial LOBPCG solve
inline constexpr const char* kParDistLobpcg = "par.dist_lobpcg";  // distributed LOBPCG solve
inline constexpr const char* kParTranspose = "par.transpose";  // pencil transpose (alltoallv)
inline constexpr const char* kBarrier = "barrier";  // dissemination barrier
inline constexpr const char* kBcast = "bcast";  // binomial-tree broadcast
inline constexpr const char* kReduce = "reduce";  // binomial-tree reduction
inline constexpr const char* kAllreduce = "allreduce";  // single-round fold + butterfly allreduce
inline constexpr const char* kAlltoall = "alltoall";  // shifted pairwise exchange
inline constexpr const char* kAlltoallv = "alltoallv";  // variable-count pairwise exchange
inline constexpr const char* kAllgather = "allgather";  // ring allgather
inline constexpr const char* kAllgatherv = "allgatherv";  // variable-count ring allgather
inline constexpr const char* kGather = "gather";  // root gather
inline constexpr const char* kScatter = "scatter";  // root scatter
inline constexpr const char* kSplit = "split";  // communicator split (allgatherv composite)
inline constexpr const char* kP2p = "p2p";  // user point-to-point send/recv outside any collective
inline constexpr const char* kBarrierWait = "barrier.wait";  // barrier: straggler wait
inline constexpr const char* kBarrierXfer = "barrier.xfer";  // barrier: exchange rounds
inline constexpr const char* kBcastWait = "bcast.wait";  // bcast: straggler wait
inline constexpr const char* kBcastXfer = "bcast.xfer";  // bcast: tree transfer
inline constexpr const char* kReduceWait = "reduce.wait";  // reduce: straggler wait
inline constexpr const char* kReduceXfer = "reduce.xfer";  // reduce: tree transfer
inline constexpr const char* kAllreduceWait = "allreduce.wait";  // allreduce: straggler wait
inline constexpr const char* kAllreduceXfer = "allreduce.xfer";  // allreduce: fold/butterfly transfer
inline constexpr const char* kAlltoallWait = "alltoall.wait";  // alltoall: straggler wait
inline constexpr const char* kAlltoallXfer = "alltoall.xfer";  // alltoall: pairwise transfer
inline constexpr const char* kAlltoallvWait = "alltoallv.wait";  // alltoallv: straggler wait
inline constexpr const char* kAlltoallvXfer = "alltoallv.xfer";  // alltoallv: pairwise transfer
inline constexpr const char* kAllgatherWait = "allgather.wait";  // allgather: straggler wait
inline constexpr const char* kAllgatherXfer = "allgather.xfer";  // allgather: ring transfer
inline constexpr const char* kAllgathervWait = "allgatherv.wait";  // allgatherv: straggler wait
inline constexpr const char* kAllgathervXfer = "allgatherv.xfer";  // allgatherv: ring transfer
inline constexpr const char* kGatherWait = "gather.wait";  // gather: straggler wait
inline constexpr const char* kGatherXfer = "gather.xfer";  // gather: root transfer
inline constexpr const char* kScatterWait = "scatter.wait";  // scatter: straggler wait
inline constexpr const char* kScatterXfer = "scatter.xfer";  // scatter: root transfer
inline constexpr const char* kSplitWait = "split.wait";  // split: straggler wait
inline constexpr const char* kSplitXfer = "split.xfer";  // split: composite transfer

inline constexpr const char* kAll[] = {
    kKmeans,
    kFft,
    kMpi,
    kGemm,
    kDiag,
    kPairProduct,
    kFftFft3d,
    kFftFft3dAxis0,
    kFftFft3dAxis1,
    kFftFft3dAxis2,
    kIsdfSelectPoints,
    kIsdfInterpVectors,
    kIsdfPointsKmeans,
    kIsdfPointsQrcp,
    kFtCheckpointSave,
    kFtCheckpointLoad,
    kKmeansLloyd,
    kLaLobpcg,
    kParDistLobpcg,
    kParTranspose,
    kBarrier,
    kBcast,
    kReduce,
    kAllreduce,
    kAlltoall,
    kAlltoallv,
    kAllgather,
    kAllgatherv,
    kGather,
    kScatter,
    kSplit,
    kP2p,
    kBarrierWait,
    kBarrierXfer,
    kBcastWait,
    kBcastXfer,
    kReduceWait,
    kReduceXfer,
    kAllreduceWait,
    kAllreduceXfer,
    kAlltoallWait,
    kAlltoallXfer,
    kAlltoallvWait,
    kAlltoallvXfer,
    kAllgatherWait,
    kAllgatherXfer,
    kAllgathervWait,
    kAllgathervXfer,
    kGatherWait,
    kGatherXfer,
    kScatterWait,
    kScatterXfer,
    kSplitWait,
    kSplitXfer,
};

inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);

/// True when `name` is a registered phase/span name.
constexpr bool is_registered(std::string_view name) {
  for (const char* phase : kAll) {
    if (name == phase) return true;
  }
  return false;
}

}  // namespace lrt::obs::phase
