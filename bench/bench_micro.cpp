// Micro-benchmarks of the simulator infrastructure itself (wall-clock, via
// google-benchmark): event dispatch, process context switches, mailbox
// traffic, MPI messaging throughput and torus route computation, plus the
// host-side Cholesky numerics that every cholesky job runs.  These guard
// the simulator's own performance, not the paper's claims.

#include <benchmark/benchmark.h>

#include "apps/cholesky.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "tests/mpi_rig.hpp"

namespace da = deep::apps;
namespace dm = deep::mpi;
namespace dn = deep::net;
namespace ds = deep::sim;

namespace {

void BM_EventDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ds::Engine eng;
    int sink = 0;
    for (int i = 0; i < events; ++i)
      eng.schedule_in(ds::nanoseconds(i), [&sink] { ++sink; });
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(10000);

void BM_ProcessContextSwitch(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ds::Engine eng;
    eng.spawn("p", [hops](ds::Context& ctx) {
      for (int i = 0; i < hops; ++i) ctx.delay(ds::nanoseconds(1));
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_ProcessContextSwitch)->Arg(1000);

void BM_MailboxPingPong(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ds::Engine eng;
    ds::Mailbox<int> a2b, b2a;
    eng.spawn("a", [&](ds::Context& ctx) {
      for (int i = 0; i < msgs; ++i) {
        a2b.push(i);
        b2a.receive(ctx);
      }
    });
    eng.spawn("b", [&](ds::Context& ctx) {
      for (int i = 0; i < msgs; ++i) {
        a2b.receive(ctx);
        b2a.push(i);
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs * 2);
}
BENCHMARK(BM_MailboxPingPong)->Arg(500);

void BM_ProcessSpawnStress(benchmark::State& state) {
  // Scale guardrail: >= 10k concurrent processes per engine.  Impossible
  // under the old thread-per-process model (OS thread limits, ~6.5 us per
  // switch); with pooled fiber stacks it is routine.
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ds::Engine eng;
    int done = 0;
    for (int i = 0; i < procs; ++i) {
      eng.spawn("p", [&done, i](ds::Context& ctx) {
        ctx.delay(ds::nanoseconds(i % 13));
        ctx.delay(ds::nanoseconds((i * 7) % 11));
        ++done;
      });
    }
    eng.run();
    if (done != procs) state.SkipWithError("processes lost");
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_ProcessSpawnStress)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_MpiEagerPingPong(benchmark::State& state) {
  const int iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    deep::testing::MpiRig rig(2);
    rig.run([iters](dm::Mpi& mpi) {
      std::vector<std::byte> buf(64);
      const dm::Rank peer = 1 - mpi.rank();
      for (int i = 0; i < iters; ++i) {
        if (mpi.rank() == 0) {
          mpi.send_bytes(mpi.world(), peer, 0, buf);
          mpi.recv_bytes(mpi.world(), peer, 0, buf);
        } else {
          mpi.recv_bytes(mpi.world(), peer, 0, buf);
          mpi.send_bytes(mpi.world(), peer, 0, buf);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * iters * 2);
}
BENCHMARK(BM_MpiEagerPingPong)->Arg(200);

void BM_TorusSend(benchmark::State& state) {
  // Cost of routing + contention bookkeeping per message on a 8x8x8 torus.
  for (auto _ : state) {
    ds::Engine eng;
    dn::TorusParams p;
    p.dims = {8, 8, 8};
    dn::TorusFabric t(eng, "extoll", p);
    for (int n = 0; n < 512; ++n)
      t.attach(n).bind(dn::Port::Raw, [](dn::Message&&) {});
    for (int n = 0; n < 512; ++n) {
      dn::Message m;
      m.src = n;
      m.dst = (n * 37 + 11) % 512;
      m.size_bytes = 4096;
      t.send(std::move(m), dn::Service::Bulk);
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_TorusSend);

void BM_CollectiveAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    deep::testing::MpiRig rig(ranks);
    rig.run([](dm::Mpi& mpi) {
      const std::vector<double> in(64, 1.0);
      std::vector<double> out(64);
      mpi.allreduce<double>(mpi.world(), dm::Op::Sum,
                            std::span<const double>(in), std::span<double>(out));
    });
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_CollectiveAllreduce)->Arg(8)->Arg(32);

// The Cholesky numerics at the shape service and offload jobs use (8 x 8
// tiles of 24 x 24): the L * L^T - A check run after every factorisation,
// and the sequential factorisation itself (8 potrf, 28 trsm, 28 syrk and
// 56 gemm tile kernels; restoring the input is not timed).
constexpr int kCholTiles = 8, kCholTileSize = 24;

void BM_CholeskyFactorError(benchmark::State& state) {
  da::TiledMatrix original(kCholTiles, kCholTileSize),
      factor(kCholTiles, kCholTileSize);
  da::fill_spd(original, 1);
  factor.storage() = original.storage();
  da::cholesky_reference(factor);
  for (auto _ : state)
    benchmark::DoNotOptimize(da::factor_error(factor, original));
}
BENCHMARK(BM_CholeskyFactorError)->Unit(benchmark::kMicrosecond);

void BM_CholeskyTileKernels(benchmark::State& state) {
  da::TiledMatrix original(kCholTiles, kCholTileSize),
      a(kCholTiles, kCholTileSize);
  da::fill_spd(original, 1);
  for (auto _ : state) {
    state.PauseTiming();
    a.storage() = original.storage();
    state.ResumeTiming();
    da::cholesky_reference(a);
    benchmark::DoNotOptimize(a.storage().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CholeskyTileKernels)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
