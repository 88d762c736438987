// GENERATED FILE — DO NOT EDIT.
//
// Registered counter name vocabulary, generated from
// src/obs/counters.def by `lrt-analyze gen-counters --write`. The
// counter-registry-sync pass fails CI when this file and the def
// drift apart; the counter-registry pass requires every
// obs::counter("...") literal in src/ and bench/ to name an
// entry. Dynamically built names (e.g. the comm.<kind> family)
// must still enumerate every reachable name here.
#pragma once

#include <cstddef>
#include <string_view>

namespace lrt::obs::cnt {

inline constexpr const char* kKmeansAssignFull = "kmeans.assign.full";  // points fully re-scanned in an assign sweep
inline constexpr const char* kKmeansAssignSkipped = "kmeans.assign.skipped";  // points skipped by the triangle-inequality prune
inline constexpr const char* kKmeansIterations = "kmeans.iterations";  // Lloyd iterations executed (one add per rank)
inline constexpr const char* kIsdfThetaRidge = "isdf.theta.ridge";  // Θ fits whose C Cᵀ Cholesky was refused, so the ridge ran (one add per rank)
inline constexpr const char* kLaLobpcgIterations = "la.lobpcg.iterations";  // LOBPCG outer iterations executed
inline constexpr const char* kLaGemmCalls = "la.gemm.calls";  // gemm entry calls
inline constexpr const char* kLaGemmFlops = "la.gemm.flops";  // floating-point operations billed to gemm
inline constexpr const char* kLaGemmPackedCalls = "la.gemm.packed_calls";  // gemm calls served by the packed kernel
inline constexpr const char* kLaGemmFallbackCalls = "la.gemm.fallback_calls";  // gemm calls served by the naive fallback
inline constexpr const char* kLaGemmBatchedCalls = "la.gemm.batched_calls";  // gemm_many batch invocations (B packed once)
inline constexpr const char* kLaGemmBatchedItems = "la.gemm.batched_items";  // small-A panels streamed through gemm_many
inline constexpr const char* kFftFft3dCalls = "fft.fft3d.calls";  // 3-D transforms executed
inline constexpr const char* kFftFft3dPoints = "fft.fft3d.points";  // grid points transformed
inline constexpr const char* kFftFft1dBatches = "fft.fft1d.batches";  // batched 1-D plan executions
inline constexpr const char* kFftFft1dLines = "fft.fft1d.lines";  // 1-D lines transformed
inline constexpr const char* kParDistLobpcgIterations = "par.dist_lobpcg.iterations";  // distributed LOBPCG outer iterations
inline constexpr const char* kFtInjectQueries = "ft.inject.queries";  // fault-plan draw sites reached (sends + collectives)
inline constexpr const char* kFtInjectSendFail = "ft.inject.send_fail";  // transient send failures injected
inline constexpr const char* kFtInjectDelay = "ft.inject.delay";  // delays injected
inline constexpr const char* kFtInjectCrash = "ft.inject.crash";  // rank crashes injected
inline constexpr const char* kFtRetryAttempts = "ft.retry.attempts";  // retried attempts after a transient error (generic sites)
inline constexpr const char* kFtRetryExhausted = "ft.retry.exhausted";  // retry budgets exhausted (generic sites)
inline constexpr const char* kCommRetryAttempts = "comm.retry.attempts";  // Comm sends retried after an injected transient failure
inline constexpr const char* kCommRetryExhausted = "comm.retry.exhausted";  // Comm sends that exhausted their retry budget
inline constexpr const char* kCommP2pBytes = "comm.p2p.bytes";  // point-to-point payload bytes
inline constexpr const char* kCommP2pCalls = "comm.p2p.calls";  // point-to-point sends/receives
inline constexpr const char* kCommBcastBytes = "comm.bcast.bytes";  // broadcast payload bytes
inline constexpr const char* kCommBcastCalls = "comm.bcast.calls";  // broadcast invocations
inline constexpr const char* kCommReduceBytes = "comm.reduce.bytes";  // reduction payload bytes
inline constexpr const char* kCommReduceCalls = "comm.reduce.calls";  // reduction invocations
inline constexpr const char* kCommAllreduceBytes = "comm.allreduce.bytes";  // single-round allreduce payload bytes
inline constexpr const char* kCommAllreduceCalls = "comm.allreduce.calls";  // single-round allreduce invocations
inline constexpr const char* kCommAlltoallvBytes = "comm.alltoallv.bytes";  // all-to-all-v payload bytes
inline constexpr const char* kCommAlltoallvCalls = "comm.alltoallv.calls";  // all-to-all-v invocations
inline constexpr const char* kCommAllgathervBytes = "comm.allgatherv.bytes";  // allgather-v payload bytes
inline constexpr const char* kCommAllgathervCalls = "comm.allgatherv.calls";  // allgather-v invocations
inline constexpr const char* kCommGatherBytes = "comm.gather.bytes";  // gather payload bytes
inline constexpr const char* kCommGatherCalls = "comm.gather.calls";  // gather invocations
inline constexpr const char* kCommScatterBytes = "comm.scatter.bytes";  // scatter payload bytes
inline constexpr const char* kCommScatterCalls = "comm.scatter.calls";  // scatter invocations
inline constexpr const char* kCommBarrierBytes = "comm.barrier.bytes";  // barrier payload bytes (always zero)
inline constexpr const char* kCommBarrierCalls = "comm.barrier.calls";  // barrier invocations
inline constexpr const char* kMemHwmBytes = "mem.hwm.bytes";  // peak resident set size observed at phase boundaries

inline constexpr const char* kAll[] = {
    kKmeansAssignFull,
    kKmeansAssignSkipped,
    kKmeansIterations,
    kIsdfThetaRidge,
    kLaLobpcgIterations,
    kLaGemmCalls,
    kLaGemmFlops,
    kLaGemmPackedCalls,
    kLaGemmFallbackCalls,
    kLaGemmBatchedCalls,
    kLaGemmBatchedItems,
    kFftFft3dCalls,
    kFftFft3dPoints,
    kFftFft1dBatches,
    kFftFft1dLines,
    kParDistLobpcgIterations,
    kFtInjectQueries,
    kFtInjectSendFail,
    kFtInjectDelay,
    kFtInjectCrash,
    kFtRetryAttempts,
    kFtRetryExhausted,
    kCommRetryAttempts,
    kCommRetryExhausted,
    kCommP2pBytes,
    kCommP2pCalls,
    kCommBcastBytes,
    kCommBcastCalls,
    kCommReduceBytes,
    kCommReduceCalls,
    kCommAllreduceBytes,
    kCommAllreduceCalls,
    kCommAlltoallvBytes,
    kCommAlltoallvCalls,
    kCommAllgathervBytes,
    kCommAllgathervCalls,
    kCommGatherBytes,
    kCommGatherCalls,
    kCommScatterBytes,
    kCommScatterCalls,
    kCommBarrierBytes,
    kCommBarrierCalls,
    kMemHwmBytes,
};

inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);

/// True when `name` is a registered counter name.
constexpr bool is_registered(std::string_view name) {
  for (const char* counter : kAll) {
    if (name == counter) return true;
  }
  return false;
}

}  // namespace lrt::obs::cnt
