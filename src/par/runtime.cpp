#include "par/runtime.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace lrt::par {

namespace detail {

void Mailbox::push(Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(message));
  }
  cv_.notify_all();
}

bool Mailbox::matches(const Message& m, int src, int tag,
                      long long context) const {
  if (m.context != context) return false;
  if (m.tag != tag) return false;
  return src == kAnySource || m.src == src;
}

Message Mailbox::pop(int src, int tag, long long context) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (poisoned_) throw AbortError();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, src, tag, context)) {
        Message m = std::move(*it);
        queue_.erase(it);
        return m;
      }
    }
    cv_.wait(lock);
  }
}

void Mailbox::poison() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

std::vector<Message> Mailbox::unreceived() {
  std::lock_guard<std::mutex> lock(mutex_);
  return {queue_.begin(), queue_.end()};
}

void CollectiveClock::enter(long long context, long long seq, int expected,
                            long long now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Generation& g = generations_[{context, seq}];
  g.expected = expected;
  g.entered += 1;
  if (now_ns > g.last_ns) g.last_ns = now_ns;
}

long long CollectiveClock::last_entry_ns(long long context, long long seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = generations_.find({context, seq});
  if (it == generations_.end()) return -1;
  Generation& g = it->second;
  // A rank can exit before the stragglers entered (a bcast root blocks on
  // nobody); its read fails but still counts toward retirement — each
  // rank reads exactly once, after its own enter, so reads == expected
  // implies entered == expected and the record can go.
  const long long last = g.entered >= g.expected ? g.last_ns : -1;
  if (++g.reads >= g.expected) generations_.erase(it);
  return last;
}

}  // namespace detail

Runtime::Runtime(int nranks, const check::Options& check_options,
                 const ft::FaultSpec* fault_spec) {
  LRT_CHECK(nranks >= 1, "need at least one rank, got " << nranks);
  static std::atomic<long long> run_counter{0};
  run_id_ = run_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
  if (check_options.enabled) {
    verifier_ = std::make_unique<check::Verifier>(nranks, check_options);
  }
  if (fault_spec != nullptr) {
    fault_plan_ = std::make_unique<ft::FaultPlan>(*fault_spec, nranks);
  } else {
    fault_plan_ = ft::FaultPlan::from_env(nranks);
  }
}

void Runtime::poison_all() {
  for (auto& box : mailboxes_) box->poison();
}

namespace {

void run_impl(int nranks, const std::function<void(Comm&)>& body,
              const check::Options& check_options,
              const ft::FaultSpec* fault_spec);

}  // namespace

void run(int nranks, const std::function<void(Comm&)>& body) {
  run_impl(nranks, body, check::Options::from_env(), nullptr);
}

void run(int nranks, const std::function<void(Comm&)>& body,
         const check::Options& check_options) {
  run_impl(nranks, body, check_options, nullptr);
}

void run(int nranks, const std::function<void(Comm&)>& body,
         const check::Options& check_options,
         const ft::FaultSpec& fault_spec) {
  run_impl(nranks, body, check_options, &fault_spec);
}

namespace {

void run_impl(int nranks, const std::function<void(Comm&)>& body,
              const check::Options& check_options,
              const ft::FaultSpec* fault_spec) {
  Runtime runtime(nranks, check_options, fault_spec);
  check::Verifier* verifier = runtime.verifier();
  if (verifier) verifier->start([&runtime] { runtime.poison_all(); });

  std::mutex error_mutex;
  std::exception_ptr first_error;

  if (nranks == 1) {
    try {
      // Tag the calling thread as rank 0 so obs spans recorded inside the
      // body attribute to a rank, same as the threaded path below.
      obs::ThreadRankScope rank_scope(0);
      Comm comm(&runtime, /*rank=*/0, /*world_ranks=*/{0}, /*context=*/0);
      body(comm);
    } catch (...) {
      first_error = std::current_exception();
    }
  } else {
    std::vector<int> world_ranks(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      world_ranks[static_cast<std::size_t>(r)] = r;
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r]() {
        try {
          obs::ThreadRankScope rank_scope(r);
          Comm comm(&runtime, r, world_ranks, /*context=*/0);
          body(comm);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          runtime.poison_all();
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  if (verifier) {
    verifier->stop();
    // Leak detection only makes sense after a clean finish: an aborted run
    // legitimately strands in-flight messages.
    if (!first_error && !verifier->failed() &&
        verifier->options().check_leaks) {
      for (int r = 0; r < nranks; ++r) {
        for (const detail::Message& m : runtime.mailbox(r).unreceived()) {
          verifier->on_leftover_message(r, m.src, m.tag, m.payload.size(),
                                        m.context);
        }
      }
      verifier->finish_leak_check();
    }
    // A verifier finding outranks the secondary AbortErrors it caused in
    // the other ranks: report the diagnosis, not the symptom.
    if (verifier->failed()) throw check::VerifierError(verifier->failure());
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

}  // namespace lrt::par
