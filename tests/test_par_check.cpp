// MUST-style verifier (par/check): collective-consistency checking, p2p
// tag validation, the deadlock watchdog, and message-leak detection. Each
// detection test injects a real parallel bug and expects a VerifierError
// whose report names the violation; the clean-run tests pin down that
// correct programs produce no findings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace lrt::par {
namespace {

check::Options checked(double stall_seconds = 5.0) {
  check::Options options;
  options.enabled = true;
  options.stall_seconds = stall_seconds;
  options.check_leaks = true;
  return options;
}

/// Runs `body` expecting a VerifierError and returns its report.
template <typename Body>
std::string expect_verifier_error(int nranks, Body body,
                                  const check::Options& options) {
  try {
    run(nranks, body, options);
  } catch (const check::VerifierError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected VerifierError, but the run finished";
  return {};
}

TEST(ParCheck, CleanRunProducesNoFindings) {
  EXPECT_NO_THROW(run(
      4,
      [](Comm& comm) {
        const int p = comm.size();
        comm.barrier();
        double v = comm.rank();
        comm.bcast(&v, 1, 0);
        comm.allreduce(&v, 1, ReduceOp::kSum);
        std::vector<double> all(static_cast<std::size_t>(p));
        const double mine = comm.rank();
        comm.allgather(&mine, 1, all.data());
        // Sibling subcommunicators may legally run different collectives.
        Comm sub = comm.split(comm.rank() % 2, comm.rank());
        if (comm.rank() % 2 == 0) {
          double s = 1;
          // The divergence IS the fixture: this test checks that the
          // runtime verifier detects sibling-subcommunicator patterns.
          // lrt-analyze: allow(collective-divergence)
          sub.allreduce(&s, 1, ReduceOp::kSum);
        } else {
          double b = 2;
          // lrt-analyze: allow(collective-divergence)
          sub.bcast(&b, 1, 0);
        }
        comm.barrier();
      },
      checked()));
}

TEST(ParCheck, FlowTracingDoesNotPerturbVerifierSignatures) {
  // The tracer stamps flow sequence ids into in-flight messages
  // (Message::flow_seq / flow_send_ns); the verifier must never see
  // them, so a traced run stays signature-identical to an untraced one.
  const bool saved = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  EXPECT_NO_THROW(run(
      4,
      [](Comm& comm) {
        comm.barrier();
        double v = comm.rank();
        comm.allreduce(&v, 1, ReduceOp::kSum);
        if (comm.rank() == 0) {
          comm.send(&v, 1, /*dst=*/3, /*tag=*/5);
        } else if (comm.rank() == 3) {
          comm.recv(&v, 1, /*src=*/0, /*tag=*/5);
        }
        std::vector<double> all(static_cast<std::size_t>(comm.size()));
        const double mine = comm.rank();
        comm.allgather(&mine, 1, all.data());
        comm.barrier();
      },
      checked()));
  obs::set_tracing_enabled(saved);
  obs::reset_trace();
}

TEST(ParCheck, CollectiveCountMismatchDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        double buf[5] = {0, 0, 0, 0, 0};
        comm.bcast(buf, comm.rank() == 0 ? 4 : 5, 0);
      },
      checked());
  EXPECT_NE(report.find("collective mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("count=4"), std::string::npos) << report;
  EXPECT_NE(report.find("count=5"), std::string::npos) << report;
}

TEST(ParCheck, CollectiveKindMismatchDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          // Deliberately divergent: the verifier must report the
          // barrier/bcast kind mismatch.
          // lrt-analyze: allow(collective-divergence)
          comm.barrier();
        } else {
          double v = 0;
          // lrt-analyze: allow(collective-divergence)
          comm.bcast(&v, 1, 0);
        }
      },
      checked());
  EXPECT_NE(report.find("collective mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("barrier"), std::string::npos) << report;
  EXPECT_NE(report.find("bcast"), std::string::npos) << report;
}

TEST(ParCheck, RootMismatchDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        double v = 1;
        comm.bcast(&v, 1, /*root=*/comm.rank());
      },
      checked());
  EXPECT_NE(report.find("collective mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("root=0"), std::string::npos) << report;
  EXPECT_NE(report.find("root=1"), std::string::npos) << report;
}

TEST(ParCheck, ReduceOpMismatchDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        double v = comm.rank();
        comm.allreduce(&v, 1,
                       comm.rank() == 0 ? ReduceOp::kSum : ReduceOp::kMax);
      },
      checked());
  EXPECT_NE(report.find("collective mismatch"), std::string::npos) << report;
}

TEST(ParCheck, AlltoallvInconsistentCountMatrixDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        // Rank 0 sends 2 elements to rank 1, but rank 1 expects 3.
        const bool r0 = comm.rank() == 0;
        std::vector<Index> scounts = r0 ? std::vector<Index>{0, 2}
                                        : std::vector<Index>{1, 0};
        std::vector<Index> rcounts = r0 ? std::vector<Index>{0, 1}
                                        : std::vector<Index>{3, 0};
        std::vector<Index> sdispls = {0, 0};
        std::vector<Index> rdispls = {0, 0};
        std::vector<double> send(4, 1.0), recv(4, 0.0);
        comm.alltoallv(send.data(), scounts, sdispls, recv.data(), rcounts,
                       rdispls);
      },
      checked());
  EXPECT_NE(report.find("alltoallv count matrix inconsistent"),
            std::string::npos)
      << report;
}

TEST(ParCheck, AllgathervDisagreeingCountsDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        // Each rank's own entry is consistent locally, but the vectors
        // disagree about the *other* rank's contribution.
        const bool r0 = comm.rank() == 0;
        std::vector<Index> counts = r0 ? std::vector<Index>{1, 2}
                                       : std::vector<Index>{1, 1};
        std::vector<Index> displs = {0, 1};
        std::vector<double> recv(3, 0.0);
        const double mine = comm.rank();
        comm.allgatherv(&mine, counts[static_cast<std::size_t>(comm.rank())],
                        recv.data(), counts, displs);
      },
      checked());
  EXPECT_NE(report.find("allgatherv counts disagree"), std::string::npos)
      << report;
}

TEST(ParCheck, DeadlockWatchdogFiresOnUnmatchedRecv) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          double v = 0;
          comm.recv(&v, 1, 1, /*tag=*/9);  // rank 1 never sends
        }
      },
      checked(/*stall_seconds=*/0.2));
  EXPECT_NE(report.find("deadlock watchdog"), std::string::npos) << report;
  EXPECT_NE(report.find("blocked"), std::string::npos) << report;
  EXPECT_NE(report.find("tag=9"), std::string::npos) << report;
  // The dump covers every rank, including the one that already returned.
  EXPECT_NE(report.find("rank 1: running"), std::string::npos) << report;
}

TEST(ParCheck, SendWithNoRecvReportedAsLeak) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          const double v = 1.5;
          comm.send(&v, 1, 1, /*tag=*/3);  // rank 1 never receives
        }
      },
      checked());
  EXPECT_NE(report.find("message leak"), std::string::npos) << report;
  EXPECT_NE(report.find("never received"), std::string::npos) << report;
  EXPECT_NE(report.find("tag 3"), std::string::npos) << report;
}

TEST(ParCheck, UserSendWithReservedTagDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        const double v = 1.0;
        if (comm.rank() == 0) comm.send(&v, 1, 1, detail::kTagBcast);
      },
      checked());
  EXPECT_NE(report.find("reserved"), std::string::npos) << report;
}

TEST(ParCheck, NegativeTagDetected) {
  const std::string report = expect_verifier_error(
      2,
      [](Comm& comm) {
        const double v = 1.0;
        if (comm.rank() == 0) comm.send(&v, 1, 1, -4);
      },
      checked());
  EXPECT_NE(report.find("negative tag"), std::string::npos) << report;
}

TEST(ParCheck, WatchdogCoversSingleRankRuns) {
  // nranks == 1 runs inline on the caller thread; the watchdog must still
  // break an unmatched self-receive.
  const std::string report = expect_verifier_error(
      1,
      [](Comm& comm) {
        double v = 0;
        comm.recv(&v, 1, 0, /*tag=*/11);
      },
      checked(/*stall_seconds=*/0.2));
  EXPECT_NE(report.find("deadlock watchdog"), std::string::npos) << report;
}

TEST(ParCheck, DisabledVerifierKeepsLegacyBehavior) {
  // A send with no recv is silent without the verifier (mailboxes are
  // simply dropped) — the seed behavior tests rely on.
  EXPECT_NO_THROW(run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          const double v = 1.5;
          comm.send(&v, 1, 1, 3);
        }
      },
      check::Options{}));
}

TEST(ParCheck, OptionsFromEnvParsesFields) {
  // from_env reads the ambient environment; only exercise the default
  // (unset) path here to stay hermetic.
  const check::Options options = check::Options::from_env();
  if (std::getenv("LRT_CHECK") == nullptr) {
    EXPECT_FALSE(options.enabled);
  }
  EXPECT_GE(options.stall_seconds, 0.0);
}

/// The full distributed TDDFT path runs clean under the verifier — the
/// production-workload regression for the whole check layer.
TEST(ParCheck, DistributedCollectivePatternsRunClean) {
  EXPECT_NO_THROW(run(
      4,
      [](Comm& comm) {
        const int p = comm.size();
        // Mimic the transpose/redistribute traffic: alltoallv with a
        // consistent, non-uniform count matrix.
        std::vector<Index> scounts(static_cast<std::size_t>(p));
        std::vector<Index> sdispls(static_cast<std::size_t>(p));
        Index total = 0;
        for (int q = 0; q < p; ++q) {
          scounts[static_cast<std::size_t>(q)] = q + 1;
          sdispls[static_cast<std::size_t>(q)] = total;
          total += q + 1;
        }
        std::vector<double> send(static_cast<std::size_t>(total), 1.0);
        std::vector<Index> rcounts(static_cast<std::size_t>(p),
                                   comm.rank() + 1);
        std::vector<Index> rdispls(static_cast<std::size_t>(p));
        for (int q = 1; q < p; ++q) {
          rdispls[static_cast<std::size_t>(q)] =
              rdispls[static_cast<std::size_t>(q - 1)] + comm.rank() + 1;
        }
        std::vector<double> recv(
            static_cast<std::size_t>(p * (comm.rank() + 1)));
        comm.alltoallv(send.data(), scounts, sdispls, recv.data(), rcounts,
                       rdispls);
        // Pipelined GEMM+reduce shape: repeated rooted reductions.
        for (int owner = 0; owner < p; ++owner) {
          std::vector<double> chunk(8, 1.0);
          comm.reduce(chunk.data(), 8, ReduceOp::kSum, owner);
        }
        comm.barrier();
      },
      checked()));
}

}  // namespace
}  // namespace lrt::par
