// MUST-style runtime correctness checker for the thread-rank runtime.
//
// Real MPI codes lean on tools like MUST to catch collective mismatches,
// message-size errors, and deadlocks at run time. Our ranks are threads
// (par/runtime.hpp), so those bug classes turn into shared-memory data
// corruption or a silently hung process — worse than on MPI, not better.
// This subsystem provides the equivalent safety net:
//
//  * Collective consistency: every collective call posts a record
//    (per-communicator sequence number, op kind, root, dtype size,
//    counts) to a shared ledger. The first rank to reach sequence number
//    s on a communicator defines the expected signature; any rank that
//    posts a different one aborts the run with a per-rank diff. For
//    alltoallv the full count matrix is cross-checked (rank i must send
//    to rank j exactly what j expects from i); for allgatherv all ranks
//    must agree on the counts vector.
//  * P2p validation: send/recv outside a collective must use a
//    non-negative tag below kUserTagLimit (internal tags are reserved
//    for collective algorithms); violations abort with the offending
//    call. Payload-size mismatches on recv already throw in Comm.
//  * Deadlock watchdog: a monitor thread wakes periodically; if any rank
//    has been blocked in a receive for longer than `stall_seconds` it
//    dumps every rank's current blocked call site (or "running") and
//    poisons the mailboxes so the run aborts instead of hanging.
//  * Message-leak detection: after a clean run, leftover mailbox
//    messages (sends that were never received) fail the run with their
//    (src, dst, tag, bytes).
//
// The checker is compiled in always and enabled per run: either
// explicitly via par::run(n, body, options) or ambiently via environment
// variables (read by check::Options::from_env):
//
//   LRT_CHECK=1                  enable the verifier
//   LRT_CHECK_STALL_SECONDS=30   watchdog threshold (0 disables watchdog)
//   LRT_CHECK_LEAKS=0            disable end-of-run leak detection
//
// When disabled (the default) the hooks reduce to a null-pointer test on
// the hot paths. See docs/CONCURRENCY.md for usage and output format.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"

namespace lrt::par::check {

/// Thrown (on the caller of par::run) when the verifier detects a
/// correctness violation: collective mismatch, bad tag, stall, or leaked
/// messages. The what() string carries the full per-rank report.
class VerifierError : public Error {
 public:
  explicit VerifierError(const std::string& what) : Error(what) {}
};

enum class CollKind {
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
};

const char* to_string(CollKind kind);

/// Signature of one collective call as seen by one rank. Uniform fields
/// (kind/root/dtype_size/count/comm_size) must match across ranks
/// exactly; v-variant count vectors are cross-checked once every rank of
/// the communicator has posted.
struct CollectiveRecord {
  CollKind kind = CollKind::kBarrier;
  int root = -1;               ///< group rank; -1 for rootless collectives
  int reduce_op = -1;          ///< static_cast<int>(ReduceOp); -1 if n/a
  std::size_t dtype_size = 0;  ///< sizeof(element type)
  long long count = 0;         ///< uniform per-rank element count; -1 for v
  int comm_size = 0;
  std::vector<long long> send_counts;  ///< v-variants only
  std::vector<long long> recv_counts;  ///< v-variants only

  std::string describe() const;
};

struct Options {
  bool enabled = false;
  /// Watchdog threshold in seconds; <= 0 disables the watchdog.
  double stall_seconds = 60.0;
  /// Fail the run if mailboxes still hold messages after a clean finish.
  bool check_leaks = true;

  /// Reads LRT_CHECK / LRT_CHECK_STALL_SECONDS / LRT_CHECK_LEAKS.
  static Options from_env();
};

/// One verifier instance per par::run, shared by all rank threads. All
/// methods are thread-safe; rank threads only ever touch their own
/// blocked-state slot plus the shared collective ledger (mutex-guarded).
class Verifier {
 public:
  Verifier(int world_size, Options options);
  ~Verifier();

  const Options& options() const { return options_; }

  /// Installs the callback used to wake blocked ranks on failure
  /// (Runtime::poison_all) and starts the watchdog thread if enabled.
  void start(std::function<void()> poison);

  /// Joins the watchdog. Idempotent; called by run() after the ranks.
  void stop();

  // ----- collective consistency ---------------------------------------------

  /// Posts rank `group_rank`'s signature for collective number `seq` on
  /// communicator `context`. Throws VerifierError (after waking all other
  /// ranks) on mismatch with a previously posted signature.
  void on_collective(int world_rank, int group_rank, long long context,
                     long long seq, const CollectiveRecord& record);

  // ----- p2p validation -----------------------------------------------------

  /// Validates a point-to-point call. `user_call` is true when issued
  /// outside any collective (user code), which restricts the tag range.
  void on_p2p(int world_rank, const char* op, int peer_group_rank, int tag,
              std::size_t bytes, bool user_call);

  // ----- deadlock watchdog --------------------------------------------------

  /// Marks `world_rank` as blocked with a human-readable call-site
  /// description; cleared on destruction. Used around mailbox waits.
  class BlockScope {
   public:
    BlockScope(Verifier* verifier, int world_rank, std::string what);
    ~BlockScope();

    BlockScope(const BlockScope&) = delete;
    BlockScope& operator=(const BlockScope&) = delete;

   private:
    Verifier* verifier_;
    int world_rank_;
  };

  // ----- message-leak detection ---------------------------------------------

  /// Reports a message still sitting in `dst_world_rank`'s mailbox after
  /// all ranks returned. Accumulated into the final leak report.
  void on_leftover_message(int dst_world_rank, int src, int tag,
                           std::size_t bytes, long long context);

  /// Converts accumulated leftovers into a failure. Call after all
  /// on_leftover_message calls.
  void finish_leak_check();

  // ----- failure state ------------------------------------------------------

  bool failed() const;
  std::string failure() const;

 private:
  struct BlockedState {
    std::string what;                                  ///< empty = running
    std::chrono::steady_clock::time_point since{};
  };

  struct PendingCollective {
    CollectiveRecord expected;
    int first_world_rank = -1;
    int first_group_rank = -1;
    /// group rank -> record, for v-variant cross-checks.
    std::map<int, CollectiveRecord> per_rank;
  };

  void set_blocked(int world_rank, std::string what);
  void clear_blocked(int world_rank);

  /// Records the first failure, wakes all ranks. Does not throw.
  void record_failure(const std::string& message);

  /// record_failure + throw VerifierError (rank-thread call sites).
  [[noreturn]] void fail(const std::string& message);

  void watchdog_loop();
  std::string dump_rank_states(std::chrono::steady_clock::time_point now);

  const int world_size_;
  const Options options_;

  std::function<void()> poison_;

  mutable std::mutex failure_mutex_;
  std::string failure_;
  bool failed_ = false;

  std::mutex ledger_mutex_;
  std::map<std::pair<long long, long long>, PendingCollective> ledger_;

  std::mutex blocked_mutex_;
  std::vector<BlockedState> blocked_;

  std::mutex leak_mutex_;
  std::vector<std::string> leaks_;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace lrt::par::check
