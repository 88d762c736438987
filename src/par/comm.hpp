// Communicator: MPI-style ranks, tagged p2p, and collectives.
//
// A Comm names a group of ranks (a subset of the runtime's world) plus a
// context id that isolates its traffic from other communicators — the
// thread-runtime equivalent of an MPI communicator. Collectives are built
// from point-to-point messages with textbook algorithms (binomial trees,
// ring allgather, shifted pairwise alltoall), so their cost *structure*
// matches what the paper's MPI runs see.
//
// Time spent inside communication calls is accumulated in comm_seconds();
// the scaling benches subtract it from wall time to get per-rank busy time
// (see DESIGN.md, strong-scaling substitution).
#pragma once

#include <atomic>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "par/check/verifier.hpp"
#include "par/runtime.hpp"

namespace lrt::par {

enum class ReduceOp { kSum, kMax, kMin };

/// Traffic accounting categories, matching the paper's cost model: bytes
/// are attributed to the *user-facing* collective that caused them (an
/// allreduce's fold/butterfly messages count as allreduce traffic, a
/// split's as allgatherv), and anything sent outside a collective is p2p.
enum class Traffic {
  kP2p = 0,
  kBcast,
  kReduce,
  kAllreduce,
  kAlltoallv,
  kAllgatherv,
  kGather,
  kScatter,
  kBarrier,
};

inline constexpr int kNumTrafficKinds = 9;

/// Short lowercase name ("p2p", "bcast", ...); static storage.
const char* to_string(Traffic kind);

class Comm {
 public:
  /// Ranks in `world_ranks` are runtime (world) ranks; `rank` is this
  /// rank's index within the group. Users normally get a Comm from
  /// par::run or Comm::split.
  Comm(Runtime* runtime, int rank, std::vector<int> world_ranks,
       long long context);

  /// Movable (split returns by value); the atomic counters force a manual
  /// move. Not copyable: two live copies would double-count traffic and
  /// desynchronize the collective sequence numbers.
  Comm(Comm&& other) noexcept;
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm& operator=(Comm&&) = delete;

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(world_ranks_.size()); }

  // ----- point-to-point ----------------------------------------------------

  void send_bytes(const void* data, std::size_t bytes, int dst, int tag);

  /// Receives from `src` (must be explicit; collectives never wildcard) and
  /// requires the payload to be exactly `bytes` long.
  void recv_bytes(void* data, std::size_t bytes, int src, int tag);

  template <typename T>
  void send(const T* data, Index count, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(data, sizeof(T) * static_cast<std::size_t>(count), dst, tag);
  }

  template <typename T>
  void recv(T* data, Index count, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(data, sizeof(T) * static_cast<std::size_t>(count), src, tag);
  }

  /// Simultaneous exchange with a partner (both sides call sendrecv).
  template <typename T>
  void sendrecv(const T* send_data, Index send_count, int dst,
                T* recv_data, Index recv_count, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Deliver first, then block on the inbound message; mailboxes are
    // unbounded so this cannot deadlock.
    send(send_data, send_count, dst, tag);
    recv(recv_data, recv_count, src, tag);
  }

  // ----- collectives --------------------------------------------------------

  /// Dissemination barrier (O(log p) rounds).
  void barrier();

  /// Binomial-tree broadcast from `root`.
  template <typename T>
  void bcast(T* data, Index count, int root);

  /// Binomial-tree reduction onto `root` (in place on every rank's buffer;
  /// non-root buffers are clobbered with partial results).
  template <typename T>
  void reduce(T* data, Index count, ReduceOp op, int root);

  /// Single-round allreduce: a power-of-two butterfly (recursive doubling)
  /// with a fold/unfold step for non-power-of-two sizes — one tree
  /// traversal instead of the old reduce+bcast composite. Combination
  /// order is fixed (lower rank's partial is always the left operand), so
  /// the result is bitwise identical to reduce(op, 0) + bcast(0) on every
  /// rank and for every op.
  template <typename T>
  void allreduce(T* data, Index count, ReduceOp op);

  /// Every rank sends `count` elements to every rank. send/recv buffers are
  /// size*count long, laid out by destination/source rank.
  template <typename T>
  void alltoall(const T* send_buf, T* recv_buf, Index count);

  /// Variable-count alltoall. counts/displs are per-rank element counts and
  /// offsets into the respective buffers.
  template <typename T>
  void alltoallv(const T* send_buf, const std::vector<Index>& send_counts,
                 const std::vector<Index>& send_displs, T* recv_buf,
                 const std::vector<Index>& recv_counts,
                 const std::vector<Index>& recv_displs);

  /// Ring allgather: each rank contributes `count` elements; recv buffer
  /// holds size*count, ordered by rank.
  template <typename T>
  void allgather(const T* send_buf, Index count, T* recv_buf);

  /// Variable-count ring allgather. In place when send_buf is
  /// recv_buf + displs[rank].
  template <typename T>
  void allgatherv(const T* send_buf, Index count, T* recv_buf,
                  const std::vector<Index>& counts,
                  const std::vector<Index>& displs);

  /// Root collects `count` elements from each rank (recv_buf significant at
  /// root only, size*count elements).
  template <typename T>
  void gather(const T* send_buf, Index count, T* recv_buf, int root);

  template <typename T>
  void scatter(const T* send_buf, Index count, T* recv_buf, int root);

  // ----- communicator management --------------------------------------------

  /// Collective: partitions ranks by `color`; within a color, ranks are
  /// ordered by (key, old rank). Every rank must call split.
  Comm split(int color, int key);

  // ----- diagnostics ---------------------------------------------------------

  /// Seconds this rank has spent inside communication calls on this Comm.
  double comm_seconds() const { return comm_seconds_; }
  void reset_comm_seconds() { comm_seconds_ = 0.0; }

  /// Bytes sent through p2p on this Comm (collectives included): the sum
  /// over all traffic kinds, kept for backward compatibility.
  long long bytes_sent() const {
    long long sum = 0;
    for (int k = 0; k < kNumTrafficKinds; ++k) {
      sum += bytes_by_kind_[k].load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Bytes attributed to one traffic kind on this Comm.
  long long bytes_sent(Traffic kind) const {
    return bytes_by_kind_[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
  }

  /// User-facing calls of one traffic kind on this Comm (allreduce is a
  /// single-round primitive and counts one allreduce call; the composite
  /// split counts via its leaves as one allgatherv; p2p counts user
  /// sends).
  long long calls_made(Traffic kind) const {
    return calls_by_kind_[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
  }

 private:
  int world_rank_of(int group_rank) const {
    return world_ranks_[static_cast<std::size_t>(group_rank)];
  }

  /// RAII timer accumulating into comm_seconds_, counting only the
  /// outermost communication call (collectives nest p2p).
  class CommTimerGuard {
   public:
    explicit CommTimerGuard(Comm& comm) : comm_(comm) {
      if (comm_.timer_depth_++ == 0) timer_.reset();
    }
    ~CommTimerGuard() {
      if (--comm_.timer_depth_ == 0) comm_.comm_seconds_ += timer_.seconds();
    }

   private:
    Comm& comm_;
    Timer timer_;
  };

  /// RAII prologue shared by every collective: bumps the nesting depth
  /// (so p2p tag validation knows internal from user traffic), labels
  /// watchdog dumps with the collective's name, routes byte accounting to
  /// this collective's traffic kind, emits an obs::Span, and posts the
  /// call's signature to the verifier (no-op when checking is off).
  class CollectiveGuard {
   public:
    CollectiveGuard(Comm& comm, check::CollKind kind, int root,
                    int reduce_op, std::size_t dtype_size, long long count)
        : comm_(comm),
          kind_(kind),
          prev_(comm.active_collective_),
          prev_traffic_(comm.active_traffic_),
          span_(check::to_string(kind)) {
      ++comm_.coll_depth_;
      comm_.active_collective_ = check::to_string(kind);
      comm_.enter_collective(kind);
      comm_.post_collective(kind, root, reduce_op, dtype_size, count,
                            nullptr, nullptr);
      seq_ = comm_.coll_seq_ - 1;
      entry_ns_ = comm_.collective_entered(seq_);
    }
    /// v-variant: count vectors instead of a uniform count.
    CollectiveGuard(Comm& comm, check::CollKind kind,
                    std::size_t dtype_size,
                    const std::vector<Index>* send_counts,
                    const std::vector<Index>* recv_counts)
        : comm_(comm),
          kind_(kind),
          prev_(comm.active_collective_),
          prev_traffic_(comm.active_traffic_),
          span_(check::to_string(kind)) {
      ++comm_.coll_depth_;
      comm_.active_collective_ = check::to_string(kind);
      comm_.enter_collective(kind);
      comm_.post_collective(kind, /*root=*/-1, /*reduce_op=*/-1, dtype_size,
                            /*count=*/-1, send_counts, recv_counts);
      seq_ = comm_.coll_seq_ - 1;
      entry_ns_ = comm_.collective_entered(seq_);
    }
    ~CollectiveGuard() {
      comm_.collective_exited(kind_, seq_, entry_ns_);
      comm_.active_collective_ = prev_;
      comm_.active_traffic_ = prev_traffic_;
      --comm_.coll_depth_;
    }

    CollectiveGuard(const CollectiveGuard&) = delete;
    CollectiveGuard& operator=(const CollectiveGuard&) = delete;

   private:
    Comm& comm_;
    check::CollKind kind_;
    const char* prev_;
    Traffic prev_traffic_;
    obs::Span span_;
    long long seq_ = -1;       ///< this call's collective sequence number
    long long entry_ns_ = -1;  ///< rendezvous stamp; -1 when tracing is off
  };

  /// Routes subsequent byte accounting to `kind`'s traffic category and
  /// bumps the per-kind call counters (Comm-local + obs registry).
  /// Composite kinds (allreduce, split) only re-route: their nested leaf
  /// collectives do the call counting. Defined in comm.cpp.
  void enter_collective(check::CollKind kind);

  /// Advances the per-communicator collective sequence number and, when a
  /// verifier is attached, posts this call's signature for cross-rank
  /// consistency checking. Defined in comm.cpp.
  void post_collective(check::CollKind kind, int root, int reduce_op,
                       std::size_t dtype_size, long long count,
                       const std::vector<Index>* send_counts,
                       const std::vector<Index>* recv_counts);

  /// Stamps this rank's entry into collective generation `seq` on the
  /// runtime's rendezvous clock. Returns the entry time, or -1 when
  /// tracing is disabled (the disabled-mode cost is one relaxed load).
  long long collective_entered(long long seq);

  /// Closes generation `seq`: reads the last rank's entry stamp and
  /// records `<kind>.wait` (this rank's entry until the last entry — the
  /// straggler wait, exact in the threads-as-ranks runtime) and
  /// `<kind>.xfer` (the rest) trace spans. No-op when entry_ns < 0.
  void collective_exited(check::CollKind kind, long long seq,
                         long long entry_ns);

  Runtime* runtime_;
  int rank_;
  std::vector<int> world_ranks_;
  long long context_;
  check::Verifier* verifier_ = nullptr;
  /// Fault-injection plan cached from the runtime; null (the production
  /// case) reduces every injection hook to one pointer test.
  ft::FaultPlan* fault_plan_ = nullptr;
  std::atomic<int> split_counter_{0};

  double comm_seconds_ = 0.0;
  int timer_depth_ = 0;
  /// Collective nesting depth and the innermost collective's name; both
  /// strictly rank-private (see docs/CONCURRENCY.md).
  int coll_depth_ = 0;
  const char* active_collective_ = nullptr;
  /// Collective calls issued on this communicator so far; the verifier
  /// matches call #s across ranks.
  long long coll_seq_ = 0;
  /// Traffic kind bytes are currently attributed to; rank-private like
  /// coll_depth_ (each rank accounts its own sends).
  Traffic active_traffic_ = Traffic::kP2p;
  /// Per-(dst group rank, tag) monotone send sequence for trace flow
  /// edges; rank-private, only touched when tracing is enabled. The seq
  /// travels inside the message, so the receiver needs no counterpart.
  std::map<std::pair<int, int>, long long> flow_seq_;
  /// Per-kind byte/call totals. Atomic for the same reason bytes_sent_
  /// was: diagnostics may read while rank threads send.
  std::atomic<long long> bytes_by_kind_[kNumTrafficKinds] = {};
  std::atomic<long long> calls_by_kind_[kNumTrafficKinds] = {};
};

namespace detail {

template <typename T>
void apply_reduce(ReduceOp op, T* acc, const T* in, Index count) {
  switch (op) {
    case ReduceOp::kSum:
      for (Index i = 0; i < count; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMax:
      for (Index i = 0; i < count; ++i) acc[i] = acc[i] < in[i] ? in[i] : acc[i];
      break;
    case ReduceOp::kMin:
      for (Index i = 0; i < count; ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
      break;
  }
}

// Internal tag bases; user tags live below kUserTagLimit.
inline constexpr int kUserTagLimit = 1 << 16;
inline constexpr int kTagBarrier = kUserTagLimit + 1;
inline constexpr int kTagBcast = kUserTagLimit + 2;
inline constexpr int kTagReduce = kUserTagLimit + 3;
inline constexpr int kTagAlltoall = kUserTagLimit + 4;
inline constexpr int kTagAllgather = kUserTagLimit + 5;
inline constexpr int kTagGather = kUserTagLimit + 6;
inline constexpr int kTagScatter = kUserTagLimit + 7;
inline constexpr int kTagSplit = kUserTagLimit + 8;
inline constexpr int kTagAllreduce = kUserTagLimit + 9;

}  // namespace detail

// ----- template implementations ----------------------------------------------

template <typename T>
void Comm::bcast(T* data, Index count, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kBcast, root,
                         /*reduce_op=*/-1, sizeof(T), count);
  const int p = size();
  if (p == 1) return;
  // Re-root so the tree logic can assume root 0.
  const int vrank = (rank_ - root + p) % p;
  // Binomial tree: in round k, ranks with vrank < 2^k having the data send
  // to vrank + 2^k.
  for (int offset = 1; offset < p; offset <<= 1) {
    if (vrank < offset) {
      const int peer = vrank + offset;
      if (peer < p) {
        send(data, count, (peer + root) % p, detail::kTagBcast);
      }
    } else if (vrank < 2 * offset) {
      const int peer = vrank - offset;
      recv(data, count, (peer + root) % p, detail::kTagBcast);
    }
  }
}

template <typename T>
void Comm::reduce(T* data, Index count, ReduceOp op, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kReduce, root,
                         static_cast<int>(op), sizeof(T), count);
  const int p = size();
  if (p == 1) return;
  const int vrank = (rank_ - root + p) % p;
  std::vector<T> incoming(static_cast<std::size_t>(count));
  // Reversed binomial tree: in each round the upper half sends down.
  int limit = 1;
  while (limit < p) limit <<= 1;
  for (int offset = limit >> 1; offset >= 1; offset >>= 1) {
    if (vrank < offset) {
      const int peer = vrank + offset;
      if (peer < p) {
        recv(incoming.data(), count, (peer + root) % p, detail::kTagReduce);
        detail::apply_reduce(op, data, incoming.data(), count);
      }
    } else if (vrank < 2 * offset) {
      const int peer = vrank - offset;
      send(data, count, (peer + root) % p, detail::kTagReduce);
      // This rank's contribution is merged; it stops participating.
      break;
    }
  }
}

template <typename T>
void Comm::allreduce(T* data, Index count, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kAllreduce, /*root=*/-1,
                         static_cast<int>(op), sizeof(T), count);
  const int p = size();
  if (p == 1) return;
  // Recursive doubling over the largest power of two q <= p, with a
  // fold/unfold step absorbing the p - q extra ranks. Bitwise contract:
  // after the butterfly round with offset o, rank w holds exactly the
  // partial that the reduce+bcast composite's tree produced for root
  // (w mod 2o) — every combine keeps the lower rank's partial as the left
  // (accumulator) operand, matching the reversed binomial tree's order.
  int q = 1;
  while (q * 2 <= p) q <<= 1;
  std::vector<T> incoming(static_cast<std::size_t>(count));
  // Fold: ranks beyond the power-of-two block send their contribution down.
  if (rank_ >= q) {
    send(data, count, rank_ - q, detail::kTagAllreduce);
  } else if (rank_ + q < p) {
    recv(incoming.data(), count, rank_ + q, detail::kTagAllreduce);
    detail::apply_reduce(op, data, incoming.data(), count);
  }
  if (rank_ < q) {
    // Butterfly with descending offsets: pairs exchange partials and both
    // sides keep the combination ordered lower-rank-first.
    for (int offset = q >> 1; offset >= 1; offset >>= 1) {
      const int peer = rank_ ^ offset;
      sendrecv(data, count, peer, incoming.data(), count, peer,
               detail::kTagAllreduce);
      if (rank_ < peer) {
        detail::apply_reduce(op, data, incoming.data(), count);
      } else {
        detail::apply_reduce(op, incoming.data(), data, count);
        for (Index i = 0; i < count; ++i) data[i] = incoming[i];
      }
    }
  }
  // Unfold: folded ranks get the finished result back.
  if (rank_ >= q) {
    recv(data, count, rank_ - q, detail::kTagAllreduce);
  } else if (rank_ + q < p) {
    send(data, count, rank_ + q, detail::kTagAllreduce);
  }
}

template <typename T>
void Comm::alltoall(const T* send_buf, T* recv_buf, Index count) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kAlltoall, /*root=*/-1,
                         /*reduce_op=*/-1, sizeof(T), count);
  const int p = size();
  // Shifted pairwise exchange, valid for any p: in step s, send to
  // (rank+s) mod p and receive from (rank-s) mod p.
  for (int s = 0; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    if (dst == rank_) {
      for (Index i = 0; i < count; ++i) {
        recv_buf[static_cast<Index>(rank_) * count + i] =
            send_buf[static_cast<Index>(rank_) * count + i];
      }
      continue;
    }
    sendrecv(send_buf + static_cast<Index>(dst) * count, count, dst,
             recv_buf + static_cast<Index>(src) * count, count, src,
             detail::kTagAlltoall);
  }
}

template <typename T>
void Comm::alltoallv(const T* send_buf, const std::vector<Index>& send_counts,
                     const std::vector<Index>& send_displs, T* recv_buf,
                     const std::vector<Index>& recv_counts,
                     const std::vector<Index>& recv_displs) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kAlltoallv, sizeof(T),
                         &send_counts, &recv_counts);
  const int p = size();
  LRT_CHECK(static_cast<int>(send_counts.size()) == p &&
                static_cast<int>(recv_counts.size()) == p,
            "alltoallv counts must have one entry per rank");
  for (int s = 0; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    const Index scount = send_counts[static_cast<std::size_t>(dst)];
    const Index rcount = recv_counts[static_cast<std::size_t>(src)];
    const T* sptr = send_buf + send_displs[static_cast<std::size_t>(dst)];
    T* rptr = recv_buf + recv_displs[static_cast<std::size_t>(src)];
    if (dst == rank_) {
      for (Index i = 0; i < scount; ++i) rptr[i] = sptr[i];
      continue;
    }
    sendrecv(sptr, scount, dst, rptr, rcount, src, detail::kTagAlltoall);
  }
}

template <typename T>
void Comm::allgather(const T* send_buf, Index count, T* recv_buf) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kAllgather, /*root=*/-1,
                         /*reduce_op=*/-1, sizeof(T), count);
  const int p = size();
  for (Index i = 0; i < count; ++i) {
    recv_buf[static_cast<Index>(rank_) * count + i] = send_buf[i];
  }
  // Ring: in step s, forward the block that originated at rank - s.
  for (int s = 0; s < p - 1; ++s) {
    const int to = (rank_ + 1) % p;
    const int from = (rank_ - 1 + p) % p;
    const int send_block = (rank_ - s + p) % p;
    const int recv_block = (rank_ - s - 1 + p) % p;
    sendrecv(recv_buf + static_cast<Index>(send_block) * count, count, to,
             recv_buf + static_cast<Index>(recv_block) * count, count, from,
             detail::kTagAllgather);
  }
}

template <typename T>
void Comm::allgatherv(const T* send_buf, Index count, T* recv_buf,
                      const std::vector<Index>& counts,
                      const std::vector<Index>& displs) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kAllgatherv, sizeof(T),
                         /*send_counts=*/nullptr, &counts);
  const int p = size();
  LRT_CHECK(static_cast<int>(counts.size()) == p, "allgatherv counts size");
  LRT_CHECK(counts[static_cast<std::size_t>(rank_)] == count,
            "allgatherv count mismatch on rank " << rank_);
  for (Index i = 0; i < count; ++i) {
    recv_buf[displs[static_cast<std::size_t>(rank_)] + i] = send_buf[i];
  }
  for (int s = 0; s < p - 1; ++s) {
    const int to = (rank_ + 1) % p;
    const int from = (rank_ - 1 + p) % p;
    const int send_block = (rank_ - s + p) % p;
    const int recv_block = (rank_ - s - 1 + p) % p;
    sendrecv(recv_buf + displs[static_cast<std::size_t>(send_block)],
             counts[static_cast<std::size_t>(send_block)], to,
             recv_buf + displs[static_cast<std::size_t>(recv_block)],
             counts[static_cast<std::size_t>(recv_block)], from,
             detail::kTagAllgather);
  }
}

template <typename T>
void Comm::gather(const T* send_buf, Index count, T* recv_buf, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kGather, root,
                         /*reduce_op=*/-1, sizeof(T), count);
  const int p = size();
  if (rank_ == root) {
    for (Index i = 0; i < count; ++i) {
      recv_buf[static_cast<Index>(root) * count + i] = send_buf[i];
    }
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      recv(recv_buf + static_cast<Index>(r) * count, count, r,
           detail::kTagGather);
    }
  } else {
    send(send_buf, count, root, detail::kTagGather);
  }
}

template <typename T>
void Comm::scatter(const T* send_buf, Index count, T* recv_buf, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kScatter, root,
                         /*reduce_op=*/-1, sizeof(T), count);
  const int p = size();
  if (rank_ == root) {
    for (int r = 0; r < p; ++r) {
      if (r == root) {
        for (Index i = 0; i < count; ++i) {
          recv_buf[i] = send_buf[static_cast<Index>(root) * count + i];
        }
      } else {
        send(send_buf + static_cast<Index>(r) * count, count, r,
             detail::kTagScatter);
      }
    }
  } else {
    recv(recv_buf, count, root, detail::kTagScatter);
  }
}

}  // namespace lrt::par
