#include "par/comm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "ft/retry.hpp"
#include "obs/counters.hpp"

namespace lrt::par {
namespace {

// Global (cross-Comm) mirrors of the per-kind traffic totals, registered
// as obs counters so BenchReport snapshots and the LRT_PROFILE exit
// report see them. References are resolved once; add() is a relaxed
// fetch_add.
struct TrafficObs {
  obs::Counter* bytes;
  obs::Counter* calls;
};

const TrafficObs& traffic_obs(Traffic kind) {
  static const std::array<TrafficObs, kNumTrafficKinds> table = [] {
    std::array<TrafficObs, kNumTrafficKinds> t{};
    for (int k = 0; k < kNumTrafficKinds; ++k) {
      const std::string base =
          std::string("comm.") + to_string(static_cast<Traffic>(k));
      t[static_cast<std::size_t>(k)].bytes = &obs::counter(base + ".bytes");
      t[static_cast<std::size_t>(k)].calls = &obs::counter(base + ".calls");
    }
    return t;
  }();
  return table[static_cast<std::size_t>(static_cast<int>(kind))];
}

// The user-facing traffic category each collective's internal messages
// bill to. The composite split bills to its leaf via nesting order (the
// inner allgather re-routes to allgatherv).
Traffic traffic_of(check::CollKind kind) {
  switch (kind) {
    case check::CollKind::kBcast:
      return Traffic::kBcast;
    case check::CollKind::kReduce:
      return Traffic::kReduce;
    case check::CollKind::kAllreduce:
      return Traffic::kAllreduce;
    case check::CollKind::kAlltoall:
    case check::CollKind::kAlltoallv:
      return Traffic::kAlltoallv;
    case check::CollKind::kAllgather:
    case check::CollKind::kAllgatherv:
    case check::CollKind::kSplit:
      return Traffic::kAllgatherv;
    case check::CollKind::kGather:
      return Traffic::kGather;
    case check::CollKind::kScatter:
      return Traffic::kScatter;
    case check::CollKind::kBarrier:
      return Traffic::kBarrier;
  }
  return Traffic::kP2p;
}

}  // namespace

const char* to_string(Traffic kind) {
  switch (kind) {
    case Traffic::kP2p:
      return "p2p";
    case Traffic::kBcast:
      return "bcast";
    case Traffic::kReduce:
      return "reduce";
    case Traffic::kAllreduce:
      return "allreduce";
    case Traffic::kAlltoallv:
      return "alltoallv";
    case Traffic::kAllgatherv:
      return "allgatherv";
    case Traffic::kGather:
      return "gather";
    case Traffic::kScatter:
      return "scatter";
    case Traffic::kBarrier:
      return "barrier";
  }
  return "unknown";
}

Comm::Comm(Runtime* runtime, int rank, std::vector<int> world_ranks,
           long long context)
    : runtime_(runtime),
      rank_(rank),
      world_ranks_(std::move(world_ranks)),
      context_(context) {
  LRT_CHECK(runtime_ != nullptr, "null runtime");
  LRT_CHECK(rank_ >= 0 && rank_ < size(), "rank out of range");
  verifier_ = runtime_->verifier();
  fault_plan_ = runtime_->fault_plan();
}

Comm::Comm(Comm&& other) noexcept
    : runtime_(other.runtime_),
      rank_(other.rank_),
      world_ranks_(std::move(other.world_ranks_)),
      context_(other.context_),
      verifier_(other.verifier_),
      fault_plan_(other.fault_plan_),
      split_counter_(other.split_counter_.load(std::memory_order_relaxed)),
      comm_seconds_(other.comm_seconds_),
      timer_depth_(other.timer_depth_),
      coll_depth_(other.coll_depth_),
      active_collective_(other.active_collective_),
      coll_seq_(other.coll_seq_),
      active_traffic_(other.active_traffic_),
      flow_seq_(std::move(other.flow_seq_)) {
  for (int k = 0; k < kNumTrafficKinds; ++k) {
    bytes_by_kind_[k].store(
        other.bytes_by_kind_[k].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    calls_by_kind_[k].store(
        other.calls_by_kind_[k].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}

void Comm::enter_collective(check::CollKind kind) {
  // Injection site: a plan may delay this rank here or take it down
  // (ft::RankCrashError propagates through the poison-all abort path).
  // Transient failures are only injected on sends — a whole collective
  // cannot be replayed locally once its signature reaches the verifier,
  // but the p2p messages *inside* one can, so those stay fair game.
  if (fault_plan_ != nullptr) fault_plan_->on_collective(world_rank_of(rank_));
  const Traffic traffic = traffic_of(kind);
  active_traffic_ = traffic;
  // The composite split (= allgather) is counted by its nested leaf call,
  // not here. Everything else — including the single-round allreduce —
  // counts one user-facing call.
  if (kind == check::CollKind::kSplit) return;
  calls_by_kind_[static_cast<int>(traffic)].fetch_add(
      1, std::memory_order_relaxed);
  traffic_obs(traffic).calls->add(1);
}

void Comm::post_collective(check::CollKind kind, int root, int reduce_op,
                           std::size_t dtype_size, long long count,
                           const std::vector<Index>* send_counts,
                           const std::vector<Index>* recv_counts) {
  const long long seq = coll_seq_++;
  if (verifier_ == nullptr) return;
  check::CollectiveRecord record;
  record.kind = kind;
  record.root = root;
  record.reduce_op = reduce_op;
  record.dtype_size = dtype_size;
  record.count = count;
  record.comm_size = size();
  auto to_ll = [](const std::vector<Index>& v) {
    return std::vector<long long>(v.begin(), v.end());
  };
  if (send_counts != nullptr) record.send_counts = to_ll(*send_counts);
  if (recv_counts != nullptr) record.recv_counts = to_ll(*recv_counts);
  verifier_->on_collective(world_rank_of(rank_), rank_, context_, seq,
                           record);
}

long long Comm::collective_entered(long long seq) {
  if (!obs::tracing_enabled()) return -1;
  const long long now = obs::detail::now_ns();
  runtime_->collective_clock().enter(context_, seq, size(), now);
  return now;
}

void Comm::collective_exited(check::CollKind kind, long long seq,
                             long long entry_ns) {
  if (entry_ns < 0) return;
  const long long end_ns = obs::detail::now_ns();
  const long long all_ns =
      runtime_->collective_clock().last_entry_ns(context_, seq);
  // Wait = from my entry until the last rank entered; a rank that exited
  // before the stragglers arrived (bcast root) was never blocked on them,
  // so its wait is zero. Exact, not estimated: one process, one clock.
  long long wait_end = entry_ns;
  if (all_ns > entry_ns) wait_end = std::min(all_ns, end_ns);
  const std::string base = check::to_string(kind);
  if (wait_end > entry_ns) {
    obs::detail::record_span((base + ".wait").c_str(), entry_ns, wait_end);
  }
  obs::detail::record_span((base + ".xfer").c_str(), wait_end, end_ns);
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dst, int tag) {
  LRT_CHECK(dst >= 0 && dst < size(), "send to bad rank " << dst);
  CommTimerGuard guard(*this);
  if (verifier_ != nullptr) {
    verifier_->on_p2p(world_rank_of(rank_), "send", dst, tag, bytes,
                      /*user_call=*/coll_depth_ == 0);
  }
  if (fault_plan_ != nullptr) {
    // Transient-vs-fatal classification of the p2p error surface: an
    // injected failure aborts only this *attempt* — nothing was billed or
    // delivered yet — and Retry re-runs it with deterministic backoff.
    // Only when the budget is exhausted does the TransientError escape as
    // fatal; a RankCrashError passes through untouched. Healed attempts
    // are invisible to byte/call accounting, so traffic totals stay exact
    // under LRT_FAULT.
    static obs::Counter& retry_attempts = obs::counter("comm.retry.attempts");
    static obs::Counter& retry_exhausted =
        obs::counter("comm.retry.exhausted");
    ft::RetryOptions retry_options;
    retry_options.max_attempts = fault_plan_->spec().max_attempts;
    retry_options.base_backoff_us = fault_plan_->spec().backoff_us;
    ft::Retry retry(retry_options,
                    ft::RetrySite{&retry_attempts, &retry_exhausted},
                    fault_plan_, world_rank_of(rank_));
    retry.run([&] { fault_plan_->on_send(world_rank_of(rank_)); });
  }
  detail::Message message;
  message.src = rank_;
  message.tag = tag;
  message.context = context_;
  message.payload.resize(bytes);
  if (bytes > 0) std::memcpy(message.payload.data(), data, bytes);
  // Flow tracing: stamp the per-(dst, tag) channel sequence and the send
  // time into the message and record the ph:"s" endpoint. The stamps
  // travel with the payload, so the matching receive closes the pair
  // without any shared counter (FIFO per key makes the match exact).
  const bool traced = obs::tracing_enabled();
  long long send_ns = 0;
  if (traced) {
    send_ns = obs::detail::now_ns();
    message.flow_seq = flow_seq_[{dst, tag}]++;
    message.flow_send_ns = send_ns;
    obs::detail::FlowRecord flow;
    flow.run = runtime_->run_id();
    flow.context = context_;
    flow.src = world_rank_of(rank_);
    flow.dst = world_rank_of(dst);
    flow.tag = tag;
    flow.seq = message.flow_seq;
    flow.send_ns = send_ns;
    flow.ts_ns = send_ns;
    flow.phase = 's';
    obs::detail::record_flow(flow);
  }
  // Bill the bytes to the enclosing collective's traffic kind, or to p2p
  // for user sends outside any collective (which also count as calls).
  const Traffic kind = coll_depth_ == 0 ? Traffic::kP2p : active_traffic_;
  bytes_by_kind_[static_cast<int>(kind)].fetch_add(
      static_cast<long long>(bytes), std::memory_order_relaxed);
  const TrafficObs& global = traffic_obs(kind);
  global.bytes->add(static_cast<long long>(bytes));
  if (kind == Traffic::kP2p) {
    calls_by_kind_[static_cast<int>(Traffic::kP2p)].fetch_add(
        1, std::memory_order_relaxed);
    global.calls->add(1);
  }
  runtime_->mailbox(world_rank_of(dst)).push(std::move(message));
  // User p2p gets a wrapper span so the flow arrow has a slice to bind
  // to (collective-internal sends bind to the collective's own span).
  if (traced && coll_depth_ == 0) {
    obs::detail::record_span("p2p", send_ns, obs::detail::now_ns());
  }
}

void Comm::recv_bytes(void* data, std::size_t bytes, int src, int tag) {
  LRT_CHECK(src >= 0 && src < size(), "recv from bad rank " << src);
  CommTimerGuard guard(*this);
  const long long recv_start_ns =
      obs::tracing_enabled() ? obs::detail::now_ns() : -1;
  detail::Message message = [&] {
    detail::Mailbox& box = runtime_->mailbox(world_rank_of(rank_));
    if (verifier_ == nullptr) return box.pop(src, tag, context_);
    verifier_->on_p2p(world_rank_of(rank_), "recv", src, tag, bytes,
                      /*user_call=*/coll_depth_ == 0);
    // Label this (possibly indefinite) wait for the deadlock watchdog.
    std::ostringstream os;
    if (active_collective_ != nullptr) os << active_collective_ << ": ";
    os << "recv(src=" << src << ", tag=" << tag << ", bytes=" << bytes
       << ") on communicator " << context_ << " as rank " << rank_;
    check::Verifier::BlockScope scope(verifier_, world_rank_of(rank_),
                                      os.str());
    return box.pop(src, tag, context_);
  }();
  LRT_CHECK(message.payload.size() == bytes,
            "message size mismatch: expected " << bytes << " bytes from rank "
                                               << src << " tag " << tag
                                               << ", got "
                                               << message.payload.size());
  if (bytes > 0) std::memcpy(data, message.payload.data(), bytes);
  // Close the flow pair whenever the *send* was traced — even if tracing
  // was toggled off meanwhile — so every exported ph:"s" has its ph:"f".
  if (message.flow_seq >= 0) {
    const long long end_ns = obs::detail::now_ns();
    obs::detail::FlowRecord flow;
    flow.run = runtime_->run_id();
    flow.context = context_;
    flow.src = world_rank_of(src);
    flow.dst = world_rank_of(rank_);
    flow.tag = tag;
    flow.seq = message.flow_seq;
    flow.send_ns = message.flow_send_ns;
    flow.recv_start_ns = recv_start_ns;
    flow.ts_ns = end_ns;
    flow.phase = 'f';
    obs::detail::record_flow(flow);
    if (recv_start_ns >= 0 && coll_depth_ == 0) {
      obs::detail::record_span("p2p", recv_start_ns, end_ns);
    }
  }
}

void Comm::barrier() {
  CommTimerGuard guard(*this);
  CollectiveGuard cguard(*this, check::CollKind::kBarrier, /*root=*/-1,
                         /*reduce_op=*/-1, /*dtype_size=*/1, /*count=*/1);
  const int p = size();
  char token = 0;
  // Dissemination barrier: log2(p) rounds of shifted exchanges.
  for (int distance = 1; distance < p; distance <<= 1) {
    const int to = (rank_ + distance) % p;
    const int from = (rank_ - distance + p) % p;
    sendrecv(&token, 1, to, &token, 1, from, detail::kTagBarrier);
  }
}

Comm Comm::split(int color, int key) {
  CommTimerGuard guard(*this);
  const int p = size();

  // Gather (color, key) from everyone.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(p));
  {
    CollectiveGuard cguard(*this, check::CollKind::kSplit, /*root=*/-1,
                           /*reduce_op=*/-1, sizeof(Entry), /*count=*/1);
    allgather(&mine, 1, all.data());
  }

  // My group: ranks with my color, ordered by (key, old rank).
  std::vector<Entry> group;
  for (const Entry& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::vector<int> new_world_ranks;
  int new_rank = -1;
  new_world_ranks.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    new_world_ranks.push_back(world_rank_of(group[i].rank));
    if (group[i].rank == rank_) new_rank = static_cast<int>(i);
  }
  LRT_CHECK(new_rank >= 0, "split: calling rank missing from its own group");

  // Derive a context id all members agree on without extra traffic: every
  // rank saw the same (color -> lowest old rank) mapping, so hash it with a
  // per-parent split counter. Counter advances identically on all ranks
  // because split is collective.
  const int lowest_old_rank = group.front().rank;
  const long long counter =
      split_counter_.fetch_add(1, std::memory_order_relaxed);
  const long long child_context =
      context_ * 1315423911ll + (counter << 24) +
      (static_cast<long long>(color) << 8) + lowest_old_rank + 1;

  return Comm(runtime_, new_rank, std::move(new_world_ranks), child_context);
}

}  // namespace lrt::par
