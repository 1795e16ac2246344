// Tests for the collective algorithm variants: every algorithm must produce
// identical results; Auto must select sensibly; timing relationships must
// hold (bandwidth algorithms win bulk, latency algorithms win small).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi_rig.hpp"
#include "util/error.hpp"

namespace dm = deep::mpi;
namespace ds = deep::sim;
using deep::testing::MpiRig;
using CollAlgo = dm::Mpi::CollAlgo;

namespace {

template <typename T>
std::span<const T> cspan(const std::vector<T>& v) {
  return std::span<const T>(v);
}

/// Runs a bcast of `elems` doubles on `n` ranks with `algo`; returns the
/// completion time at rank 0 and verifies the data everywhere.
double bcast_us(int n, std::size_t elems, CollAlgo algo) {
  MpiRig rig(n);
  double us = 0;
  rig.run([&](dm::Mpi& mpi) {
    std::vector<double> data(elems);
    if (mpi.rank() == 1 % n)
      for (std::size_t i = 0; i < elems; ++i) data[i] = 0.5 * static_cast<double>(i);
    const auto t0 = mpi.ctx().now();
    mpi.bcast<double>(mpi.world(), 1 % n, std::span<double>(data), algo);
    mpi.barrier(mpi.world());  // measure global completion, not injection
    if (mpi.rank() == 0) us = (mpi.ctx().now() - t0).micros();
    for (std::size_t i = 0; i < elems; i += 101)
      ASSERT_DOUBLE_EQ(data[i], 0.5 * static_cast<double>(i));
  });
  return us;
}

double allreduce_us(int n, std::size_t elems, CollAlgo algo) {
  MpiRig rig(n);
  double us = 0;
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<double> in(elems, static_cast<double>(mpi.rank() + 1));
    std::vector<double> out(elems);
    const auto t0 = mpi.ctx().now();
    mpi.allreduce<double>(mpi.world(), dm::Op::Sum, cspan(in),
                          std::span<double>(out), algo);
    if (mpi.rank() == 0) us = (mpi.ctx().now() - t0).micros();
    const double expected = n * (n + 1) / 2.0;
    for (std::size_t i = 0; i < elems; i += 97)
      ASSERT_DOUBLE_EQ(out[i], expected);
  });
  return us;
}

}  // namespace

class BcastAlgoSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcastAlgoSweep, AllAlgorithmsAgree) {
  const auto [n, log_elems] = GetParam();
  const std::size_t elems = 1u << log_elems;
  // Both algorithms deliver correct data (checked inside bcast_us).
  const double binomial = bcast_us(n, elems, CollAlgo::BinomialTree);
  const double sag = bcast_us(n, elems, CollAlgo::ScatterAllgather);
  const double automatic = bcast_us(n, elems, CollAlgo::Auto);
  EXPECT_GT(binomial, 0);
  EXPECT_GT(sag, 0);
  // Auto uses a size heuristic (as real MPI libraries do); it must stay
  // within 60% of the better algorithm across the whole sweep...
  EXPECT_LE(automatic, std::min(binomial, sag) * 1.6);
  // ...and match the winner exactly at the extremes.
  if (log_elems == 4) {
    EXPECT_DOUBLE_EQ(automatic, binomial);
  }
  if (log_elems == 17 && n >= 4) {
    EXPECT_DOUBLE_EQ(automatic, sag);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BcastAlgoSweep,
                         ::testing::Combine(::testing::Values(2, 5, 8, 16),
                                            ::testing::Values(4, 12, 17)));

TEST(CollAlgo, SagWinsLargeBcast) {
  // 16 ranks, 2 MiB: binomial sends the full payload log2(16)=4 times along
  // the critical path; scatter+allgather moves each byte at most twice.
  const double binomial = bcast_us(16, 1 << 18, CollAlgo::BinomialTree);
  const double sag = bcast_us(16, 1 << 18, CollAlgo::ScatterAllgather);
  EXPECT_LT(sag, binomial * 0.7);
}

TEST(CollAlgo, BinomialWinsSmallBcast) {
  const double binomial = bcast_us(16, 8, CollAlgo::BinomialTree);
  const double sag = bcast_us(16, 8, CollAlgo::ScatterAllgather);
  EXPECT_LT(binomial, sag);
}

TEST(CollAlgo, RecursiveDoublingCorrectAllPow2) {
  for (int n : {1, 2, 4, 8, 16, 32}) {
    EXPECT_GE(allreduce_us(n, 33, CollAlgo::RecursiveDoubling), 0.0);
  }
}

TEST(CollAlgo, RecursiveDoublingRejectsNonPow2) {
  MpiRig rig(3);
  EXPECT_THROW(rig.run([](dm::Mpi& mpi) {
                 const std::vector<int> in{1};
                 std::vector<int> out(1);
                 mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(in),
                                    std::span<int>(out),
                                    CollAlgo::RecursiveDoubling);
               }),
               deep::util::UsageError);
}

TEST(CollAlgo, RecursiveDoublingBeatsReduceBcastSmall) {
  // Small payloads: RD is one log-phase instead of two.
  const double rd = allreduce_us(16, 4, CollAlgo::RecursiveDoubling);
  const double rb = allreduce_us(16, 4, CollAlgo::ReduceBcast);
  EXPECT_LT(rd, rb);
}

TEST(CollAlgo, AutoFallsBackForNonPow2) {
  // Must not throw: Auto picks ReduceBcast on 6 ranks.
  EXPECT_GE(allreduce_us(6, 100, CollAlgo::Auto), 0.0);
}

TEST(CollAlgo, WrongAlgorithmKindRejected) {
  MpiRig rig(2);
  EXPECT_THROW(rig.run([](dm::Mpi& mpi) {
                 std::vector<double> d(4);
                 mpi.bcast<double>(mpi.world(), 0, std::span<double>(d),
                                   CollAlgo::RecursiveDoubling);
               }),
               deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// gatherv / scatterv (variable block sizes)
// ---------------------------------------------------------------------------

TEST(Vectorised, GathervCollectsUnevenBlocks) {
  MpiRig rig(4);
  rig.run([](dm::Mpi& mpi) {
    // Rank r contributes r+1 values: 100r, 100r+1, ...
    std::vector<int> mine(static_cast<std::size_t>(mpi.rank() + 1));
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = 100 * mpi.rank() + static_cast<int>(i);
    const std::vector<int> counts{1, 2, 3, 4};
    const std::vector<int> displs{0, 1, 3, 6};
    std::vector<int> all(10, -1);
    mpi.gatherv<int>(mpi.world(), 0, cspan(mine), std::span<int>(all), counts,
                     displs);
    if (mpi.rank() == 0) {
      EXPECT_EQ(all, (std::vector<int>{0, 100, 101, 200, 201, 202, 300, 301,
                                       302, 303}));
    }
  });
}

TEST(Vectorised, ScattervRoundTripsGatherv) {
  MpiRig rig(3);
  rig.run([](dm::Mpi& mpi) {
    const std::vector<int> counts{2, 1, 3};
    const std::vector<int> displs{0, 2, 3};
    std::vector<int> pool{10, 11, 20, 30, 31, 32};
    std::vector<int> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(mpi.rank())]));
    mpi.scatterv<int>(mpi.world(), 0, cspan(pool), counts, displs,
                      std::span<int>(mine));
    for (auto& v : mine) v += 1;
    std::vector<int> back(6, 0);
    mpi.gatherv<int>(mpi.world(), 0, cspan(mine), std::span<int>(back), counts,
                     displs);
    if (mpi.rank() == 0) {
      EXPECT_EQ(back, (std::vector<int>{11, 12, 21, 31, 32, 33}));
    }
  });
}

TEST(Vectorised, OverflowRejected) {
  MpiRig rig(2);
  EXPECT_THROW(
      rig.run([](dm::Mpi& mpi) {
        const std::vector<int> counts{2, 2};
        const std::vector<int> displs{0, 3};  // 3+2 > 4
        std::vector<int> mine(2), all(4);
        mpi.gatherv<int>(mpi.world(), 0, cspan(mine), std::span<int>(all),
                         counts, displs);
      }),
      deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// Rabenseifner allreduce
// ---------------------------------------------------------------------------

TEST(CollAlgo, RabenseifnerCorrectAcrossSizes) {
  for (int n : {2, 4, 8, 16}) {
    for (std::size_t elems : {static_cast<std::size_t>(n),
                              static_cast<std::size_t>(4 * n),
                              static_cast<std::size_t>(128 * n)}) {
      MpiRig rig(n);
      rig.run([&](dm::Mpi& mpi) {
        std::vector<double> in(elems), out(elems);
        for (std::size_t i = 0; i < elems; ++i)
          in[i] = static_cast<double>(mpi.rank() + 1) * static_cast<double>(i + 1);
        mpi.allreduce<double>(mpi.world(), dm::Op::Sum, cspan(in),
                              std::span<double>(out), CollAlgo::Rabenseifner);
        const double rank_sum = n * (n + 1) / 2.0;
        for (std::size_t i = 0; i < elems; ++i)
          ASSERT_DOUBLE_EQ(out[i], rank_sum * static_cast<double>(i + 1))
              << "n=" << n << " elems=" << elems << " i=" << i;
      });
    }
  }
}

TEST(CollAlgo, RabenseifnerMaxOp) {
  MpiRig rig(8);
  rig.run([](dm::Mpi& mpi) {
    std::vector<int> in(16), out(16);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = (mpi.rank() * 31 + static_cast<int>(i) * 7) % 100;
    mpi.allreduce<int>(mpi.world(), dm::Op::Max, cspan(in),
                       std::span<int>(out), CollAlgo::Rabenseifner);
    for (std::size_t i = 0; i < in.size(); ++i) {
      int expect = 0;
      for (int r = 0; r < 8; ++r)
        expect = std::max(expect, (r * 31 + static_cast<int>(i) * 7) % 100);
      ASSERT_EQ(out[i], expect);
    }
  });
}

TEST(CollAlgo, RabenseifnerBeatsRecursiveDoublingForBulk) {
  const double rab = allreduce_us(16, 1 << 17, CollAlgo::Rabenseifner);
  const double rd = allreduce_us(16, 1 << 17, CollAlgo::RecursiveDoubling);
  EXPECT_LT(rab, 0.8 * rd);
}

TEST(CollAlgo, RabenseifnerRejectsIndivisible) {
  MpiRig rig(4);
  EXPECT_THROW(rig.run([](dm::Mpi& mpi) {
                 std::vector<int> in(7), out(7);  // 7 % 4 != 0
                 mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(in),
                                    std::span<int>(out),
                                    CollAlgo::Rabenseifner);
               }),
               deep::util::UsageError);
}

TEST(CollAlgo, AutoAvoidsRabenseifnerWhenIndivisible) {
  // A big but indivisible vector must silently fall back and still work.
  MpiRig rig(8);
  rig.run([](dm::Mpi& mpi) {
    std::vector<double> in(100001, 1.0), out(100001);
    mpi.allreduce<double>(mpi.world(), dm::Op::Sum, cspan(in),
                          std::span<double>(out), CollAlgo::Auto);
    ASSERT_DOUBLE_EQ(out[100000], 8.0);
  });
}

TEST(Vectorised, AlltoallvRaggedExchange) {
  MpiRig rig(3);
  rig.run([](dm::Mpi& mpi) {
    const int n = mpi.size(), me = mpi.rank();
    // Rank r sends (d+1) copies of value 100*r+d to rank d.
    std::vector<int> scounts(3), sdispls(3), rcounts(3), rdispls(3);
    int off = 0;
    for (int d = 0; d < n; ++d) {
      scounts[static_cast<std::size_t>(d)] = d + 1;
      sdispls[static_cast<std::size_t>(d)] = off;
      off += d + 1;
    }
    std::vector<int> send(static_cast<std::size_t>(off));
    for (int d = 0; d < n; ++d)
      for (int k = 0; k < d + 1; ++k)
        send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(d)] + k)] =
            100 * me + d;
    // Everyone receives (me+1) elements from each source.
    off = 0;
    for (int s = 0; s < n; ++s) {
      rcounts[static_cast<std::size_t>(s)] = me + 1;
      rdispls[static_cast<std::size_t>(s)] = off;
      off += me + 1;
    }
    std::vector<int> recv(static_cast<std::size_t>(off), -1);
    mpi.alltoallv<int>(mpi.world(), send, scounts, sdispls,
                       std::span<int>(recv), rcounts, rdispls);
    for (int s = 0; s < n; ++s)
      for (int k = 0; k < me + 1; ++k)
        ASSERT_EQ(recv[static_cast<std::size_t>(rdispls[static_cast<std::size_t>(s)] + k)],
                  100 * s + me);
  });
}

TEST(Vectorised, AlltoallvValidation) {
  MpiRig rig(2);
  EXPECT_THROW(
      rig.run([](dm::Mpi& mpi) {
        std::vector<int> send(2), recv(2);
        const std::vector<int> counts{1, 1}, bad_displs{0, 5};  // 5+1 > 2
        const std::vector<int> rdispls{0, 1};
        mpi.alltoallv<int>(mpi.world(), send, counts, bad_displs,
                           std::span<int>(recv), counts, rdispls);
      }),
      deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// Golden simulated footprints.  Host-side rewrites of these collectives (for
// example an in-place scatter+allgather, or a ring that releases requests as
// it goes) must not move one simulated event: the final simulated time, the
// engine's event count and the fiber switches are pinned to literals
// recorded before those rewrites, and every element is checked.
// ---------------------------------------------------------------------------

namespace {

struct Footprint {
  std::int64_t final_ps;
  std::size_t events;
  std::int64_t fiber_switches;
};

Footprint sag_bcast_footprint(int n, std::size_t elems) {
  deep::obs::Registry reg;
  MpiRig rig(n);
  rig.engine().set_metrics(&reg);
  const dm::Rank root = 1 % n;
  rig.run([&](dm::Mpi& mpi) {
    std::vector<double> data(elems, -1.0);
    if (mpi.rank() == root)
      for (std::size_t i = 0; i < elems; ++i) data[i] = 0.5 * static_cast<double>(i) + 1.0;
    mpi.bcast<double>(mpi.world(), root, std::span<double>(data),
                      CollAlgo::ScatterAllgather);
    for (std::size_t i = 0; i < elems; ++i)
      ASSERT_EQ(data[i], 0.5 * static_cast<double>(i) + 1.0) << "element " << i;
  });
  return {rig.engine().now().ps, rig.engine().events_executed(),
          reg.value("sim.fiber_switches")};
}

Footprint ring_allgather_footprint(int n, std::size_t block) {
  deep::obs::Registry reg;
  deep::testing::BoosterRig rig(n);
  rig.engine().set_metrics(&reg);
  const auto value = [](int r, std::size_t i) {
    return static_cast<std::int64_t>(r) * 100000 + static_cast<std::int64_t>(i);
  };
  rig.run([&](dm::Mpi& mpi) {
    std::vector<std::int64_t> mine(block);
    for (std::size_t i = 0; i < block; ++i) mine[i] = value(mpi.rank(), i);
    std::vector<std::int64_t> all(block * static_cast<std::size_t>(n), -1);
    mpi.allgather<std::int64_t>(mpi.world(), cspan(mine),
                                std::span<std::int64_t>(all));
    for (int r = 0; r < n; ++r)
      for (std::size_t i = 0; i < block; ++i)
        ASSERT_EQ(all[static_cast<std::size_t>(r) * block + i], value(r, i))
            << "rank " << r << " element " << i;
  });
  return {rig.engine().now().ps, rig.engine().events_executed(),
          reg.value("sim.fiber_switches")};
}

}  // namespace

TEST(CollGolden, ScatterAllgatherBcastFootprints) {
  struct Case {
    int n;
    std::size_t elems;  // exact k*n, ragged k*n+1, or fewer than n
    Footprint golden;
  };
  const Case cases[] = {
      {3, 96 * 3, {5716007, 33, 25}},
      {3, 2048 * 3 + 1, {25184675, 59, 35}},
      {3, 2, {5336006, 33, 25}},
      {8, 96 * 8, {15909357, 260, 197}},
      {8, 2048 * 8 + 1, {76468025, 454, 265}},
      {8, 7, {14896021, 260, 197}},
      {16, 96 * 16, {32218717, 1036, 781}},
      {16, 2048 * 16 + 1, {158521385, 1801, 1036}},
      {16, 5, {30192045, 1036, 781}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " elems=" + std::to_string(c.elems));
    const Footprint got = sag_bcast_footprint(c.n, c.elems);
    EXPECT_EQ(got.final_ps, c.golden.final_ps);
    EXPECT_EQ(got.events, c.golden.events);
    EXPECT_EQ(got.fiber_switches, c.golden.fiber_switches);
  }
}

TEST(CollGolden, RingAllgatherFootprintAt64Ranks) {
  const Footprint got = ring_allgather_footprint(64, 96);
  EXPECT_EQ(got.final_ps, 76573661);
  EXPECT_EQ(got.events, 16192u);
  EXPECT_EQ(got.fiber_switches, 12160);
}
