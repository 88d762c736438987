#include "par/check/verifier.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace lrt::par::check {

const char* to_string(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier: return "barrier";
    case CollKind::kBcast: return "bcast";
    case CollKind::kReduce: return "reduce";
    case CollKind::kAllreduce: return "allreduce";
    case CollKind::kAlltoall: return "alltoall";
    case CollKind::kAlltoallv: return "alltoallv";
    case CollKind::kAllgather: return "allgather";
    case CollKind::kAllgatherv: return "allgatherv";
    case CollKind::kGather: return "gather";
    case CollKind::kScatter: return "scatter";
    case CollKind::kSplit: return "split";
  }
  return "?";
}

std::string CollectiveRecord::describe() const {
  std::ostringstream os;
  os << to_string(kind) << "(comm_size=" << comm_size;
  if (root >= 0) os << ", root=" << root;
  if (reduce_op >= 0) os << ", op=" << reduce_op;
  os << ", dtype_size=" << dtype_size;
  if (count >= 0) os << ", count=" << count;
  auto print_vec = [&os](const char* name,
                         const std::vector<long long>& v) {
    os << ", " << name << "=[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ",";
      os << v[i];
    }
    os << "]";
  };
  if (!send_counts.empty()) print_vec("send_counts", send_counts);
  if (!recv_counts.empty()) print_vec("recv_counts", recv_counts);
  os << ")";
  return os.str();
}

Options Options::from_env() {
  Options options;
  const char* enabled = std::getenv("LRT_CHECK");
  options.enabled =
      enabled != nullptr && *enabled != '\0' && std::string(enabled) != "0";
  if (const char* stall = std::getenv("LRT_CHECK_STALL_SECONDS")) {
    options.stall_seconds = std::strtod(stall, nullptr);
  }
  if (const char* leaks = std::getenv("LRT_CHECK_LEAKS")) {
    options.check_leaks = std::string(leaks) != "0";
  }
  return options;
}

Verifier::Verifier(int world_size, Options options)
    : world_size_(world_size),
      options_(options),
      blocked_(static_cast<std::size_t>(world_size)) {}

Verifier::~Verifier() { stop(); }

void Verifier::start(std::function<void()> poison) {
  poison_ = std::move(poison);
  if (options_.stall_seconds > 0 && !watchdog_.joinable()) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void Verifier::stop() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
}

// ----- failure state ---------------------------------------------------------

bool Verifier::failed() const {
  std::lock_guard<std::mutex> lock(failure_mutex_);
  return failed_;
}

std::string Verifier::failure() const {
  std::lock_guard<std::mutex> lock(failure_mutex_);
  return failure_;
}

void Verifier::record_failure(const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (!failed_) {
      failed_ = true;
      failure_ = message;
      log::error("par::check: " + message);
    }
  }
  // Wake ranks blocked in mailbox waits so the run unwinds instead of
  // hanging on the very bug we just diagnosed.
  if (poison_) poison_();
}

void Verifier::fail(const std::string& message) {
  record_failure(message);
  throw VerifierError(message);
}

// ----- collective consistency ------------------------------------------------

namespace {

/// The alltoallv contract: what rank i says it sends to rank j must be
/// exactly what rank j says it expects from rank i.
std::string check_alltoallv_matrix(
    const std::map<int, CollectiveRecord>& per_rank) {
  for (const auto& [src, src_rec] : per_rank) {
    for (const auto& [dst, dst_rec] : per_rank) {
      const long long sent =
          src_rec.send_counts[static_cast<std::size_t>(dst)];
      const long long expected =
          dst_rec.recv_counts[static_cast<std::size_t>(src)];
      if (sent != expected) {
        std::ostringstream os;
        os << "alltoallv count matrix inconsistent: rank " << src
           << " sends " << sent << " element(s) to rank " << dst
           << ", but rank " << dst << " expects " << expected
           << " element(s) from rank " << src;
        return os.str();
      }
    }
  }
  return {};
}

/// allgatherv requires every rank to pass the same counts vector.
std::string check_allgatherv_counts(
    const std::map<int, CollectiveRecord>& per_rank) {
  const auto& first = *per_rank.begin();
  for (const auto& [rank, rec] : per_rank) {
    if (rec.recv_counts != first.second.recv_counts) {
      std::ostringstream os;
      os << "allgatherv counts disagree: rank " << first.first << " passed "
         << first.second.describe() << " but rank " << rank << " passed "
         << rec.describe();
      return os.str();
    }
  }
  return {};
}

}  // namespace

void Verifier::on_collective(int world_rank, int group_rank,
                             long long context, long long seq,
                             const CollectiveRecord& record) {
  std::string error;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    auto [it, inserted] =
        ledger_.try_emplace({context, seq}, PendingCollective{});
    PendingCollective& pending = it->second;
    if (inserted) {
      pending.expected = record;
      pending.first_world_rank = world_rank;
      pending.first_group_rank = group_rank;
    } else {
      const CollectiveRecord& expected = pending.expected;
      const bool uniform_match = expected.kind == record.kind &&
                                 expected.root == record.root &&
                                 expected.reduce_op == record.reduce_op &&
                                 expected.dtype_size == record.dtype_size &&
                                 expected.count == record.count &&
                                 expected.comm_size == record.comm_size;
      if (!uniform_match) {
        std::ostringstream os;
        os << "collective mismatch on communicator " << context
           << " (call #" << seq << "):\n  rank " << pending.first_group_rank
           << " (world " << pending.first_world_rank << ") called "
           << expected.describe() << "\n  rank " << group_rank << " (world "
           << world_rank << ") called " << record.describe();
        error = os.str();
      }
    }
    if (error.empty()) {
      pending.per_rank.emplace(group_rank, record);
      if (static_cast<int>(pending.per_rank.size()) == record.comm_size) {
        // All ranks arrived with matching uniform signatures; cross-check
        // the v-variant count vectors, then retire the ledger entry.
        if (record.kind == CollKind::kAlltoallv) {
          error = check_alltoallv_matrix(pending.per_rank);
        } else if (record.kind == CollKind::kAllgatherv) {
          error = check_allgatherv_counts(pending.per_rank);
        }
        ledger_.erase(it);
      }
    }
  }
  if (!error.empty()) fail(error);
}

// ----- p2p validation --------------------------------------------------------

void Verifier::on_p2p(int world_rank, const char* op, int peer_group_rank,
                      int tag, std::size_t bytes, bool user_call) {
  if (tag < 0) {
    std::ostringstream os;
    os << op << " on world rank " << world_rank << " (peer "
       << peer_group_rank << ", " << bytes << " bytes) uses negative tag "
       << tag;
    fail(os.str());
  }
  // Tags at or above kUserTagLimit are reserved for the collective
  // algorithms; user p2p traffic there could be matched by a collective's
  // internal messages and corrupt it.
  constexpr int kUserTagLimit = 1 << 16;
  if (user_call && tag >= kUserTagLimit) {
    std::ostringstream os;
    os << op << " on world rank " << world_rank << " (peer "
       << peer_group_rank << ", " << bytes << " bytes) uses tag " << tag
       << " >= " << kUserTagLimit
       << ", which is reserved for internal collective traffic";
    fail(os.str());
  }
}

// ----- deadlock watchdog -----------------------------------------------------

Verifier::BlockScope::BlockScope(Verifier* verifier, int world_rank,
                                 std::string what)
    : verifier_(verifier), world_rank_(world_rank) {
  if (verifier_) verifier_->set_blocked(world_rank_, std::move(what));
}

Verifier::BlockScope::~BlockScope() {
  if (verifier_) verifier_->clear_blocked(world_rank_);
}

void Verifier::set_blocked(int world_rank, std::string what) {
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  BlockedState& state = blocked_[static_cast<std::size_t>(world_rank)];
  state.what = std::move(what);
  state.since = std::chrono::steady_clock::now();
}

void Verifier::clear_blocked(int world_rank) {
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  blocked_[static_cast<std::size_t>(world_rank)].what.clear();
}

std::string Verifier::dump_rank_states(
    std::chrono::steady_clock::time_point now) {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  for (int r = 0; r < world_size_; ++r) {
    const BlockedState& state = blocked_[static_cast<std::size_t>(r)];
    os << "\n  rank " << r << ": ";
    if (state.what.empty()) {
      os << "running (not in a blocking communication call)";
    } else {
      const double blocked_for =
          std::chrono::duration<double>(now - state.since).count();
      os << "blocked " << blocked_for << "s in " << state.what;
    }
  }
  return os.str();
}

void Verifier::watchdog_loop() {
  using Clock = std::chrono::steady_clock;
  const double poll_seconds =
      std::clamp(options_.stall_seconds / 4.0, 0.01, 1.0);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  for (;;) {
    watchdog_cv_.wait_for(
        lock, std::chrono::duration<double>(poll_seconds),
        [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;

    const auto now = Clock::now();
    bool stalled = false;
    {
      std::lock_guard<std::mutex> blocked_lock(blocked_mutex_);
      for (const BlockedState& state : blocked_) {
        if (state.what.empty()) continue;
        const double blocked_for =
            std::chrono::duration<double>(now - state.since).count();
        if (blocked_for > options_.stall_seconds) {
          stalled = true;
          break;
        }
      }
    }
    if (stalled) {
      std::ostringstream os;
      os << "deadlock watchdog: a rank has been blocked for more than "
         << options_.stall_seconds << "s; per-rank state:"
         << dump_rank_states(now);
      record_failure(os.str());
      return;
    }
  }
}

// ----- message-leak detection ------------------------------------------------

void Verifier::on_leftover_message(int dst_world_rank, int src, int tag,
                                   std::size_t bytes, long long context) {
  std::ostringstream os;
  os << "message from rank " << src << " to world rank " << dst_world_rank
     << " (tag " << tag << ", " << bytes << " bytes, communicator "
     << context << ") was sent but never received";
  std::lock_guard<std::mutex> lock(leak_mutex_);
  leaks_.push_back(os.str());
}

void Verifier::finish_leak_check() {
  std::lock_guard<std::mutex> lock(leak_mutex_);
  if (leaks_.empty()) return;
  std::ostringstream os;
  os << "message leak: " << leaks_.size()
     << " message(s) left in mailboxes after all ranks returned:";
  for (const std::string& leak : leaks_) os << "\n  " << leak;
  record_failure(os.str());
}

}  // namespace lrt::par::check
