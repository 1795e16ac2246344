// Hot-path guarantees of the zero-allocation message path (docs/perf.md):
//  * buffer/message/request pooling invariants (net/pool.hpp), including
//    pool sizes that stay fixed across repeated sessions,
//  * the memoised torus route table matches an independent reimplementation
//    of per-hop dimension-ordered routing (wrap-around, ties, dims == 1),
//  * the packed link-index aliasing guard,
//  * and the headline claim itself: a warmed-up fabric send/deliver cycle
//    — and an MPI eager isend+irecv+wait cycle on top of it — performs ZERO
//    heap allocations, verified by replacing operator new; so do the
//    Cholesky tile kernels and factor_error that every cholesky job runs.
//
// This binary carries the ctest label `perf` (see scripts/run_chaos.sh,
// which runs it under ASan as well).

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/cholesky.hpp"
#include "cbp/gateway.hpp"
#include "mpi/wire.hpp"
#include "net/crossbar.hpp"
#include "net/pool.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "svc/session.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

#include "mpi_rig.hpp"

namespace da = deep::apps;
namespace dc = deep::cbp;
namespace dm = deep::mpi;
namespace dn = deep::net;
namespace dob = deep::obs;
namespace ds = deep::sim;
namespace dsv = deep::svc;
namespace du = deep::util;

// ---------------------------------------------------------------------------
// Allocation counting: every path into the heap in this binary goes through
// these replacements.  Tests snapshot the counter around a measured region.
// ---------------------------------------------------------------------------

namespace {
std::size_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---------------------------------------------------------------------------
// Pooling invariants
// ---------------------------------------------------------------------------

TEST(BufferPool, ReleasedBufferIsReusedNotReallocated) {
  auto& pool = dn::BufferPool::instance();
  std::vector<std::byte> bytes(128, std::byte{0x42});
  dn::Payload p1 = dn::copy_payload(bytes);
  const void* data1 = p1->data();
  p1.reset();
  const std::size_t total_after_release = pool.total_buffers();
  dn::Payload p2 = dn::copy_payload(bytes);
  // Same storage came back; the pool did not grow.
  EXPECT_EQ(data1, p2->data());
  EXPECT_EQ(pool.total_buffers(), total_after_release);
  EXPECT_EQ((*p2)[0], std::byte{0x42});
}

TEST(BufferPool, RefcountSharingKeepsBufferAlive) {
  auto& pool = dn::BufferPool::instance();
  dn::Payload a = dn::copy_payload(std::vector<std::byte>(16, std::byte{7}));
  const std::size_t free_before = pool.free_buffers();
  dn::Payload b = a;  // shared reference
  a.reset();
  EXPECT_EQ(pool.free_buffers(), free_before);  // b still pins the buffer
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ((*b)[0], std::byte{7});
  b.reset();
  EXPECT_EQ(pool.free_buffers(), free_before + 1);
}

TEST(MessagePool, PooledMessageRecyclesSlotAndReleasesPayload) {
  auto& mpool = dn::MessagePool::instance();
  auto& bpool = dn::BufferPool::instance();
  dn::Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.payload = dn::copy_payload(std::vector<std::byte>(8, std::byte{1}));
  const std::size_t buffers_free = bpool.free_buffers();
  {
    dn::PooledMessage parked(std::move(msg));
    dn::Message out = parked.take();
    EXPECT_EQ(out.src, 1);
    EXPECT_EQ(out.dst, 2);
    ASSERT_TRUE(static_cast<bool>(out.payload));
    // `out` (and its payload) die here; `parked` releases the slot after.
  }
  // The slot went back to the pool with its payload reference cleared, so
  // the payload buffer is free again — pooled slots never pin buffers.
  EXPECT_GT(mpool.free_slots(), 0u);
  EXPECT_EQ(bpool.free_buffers(), buffers_free + 1);
}

TEST(MessagePool, DroppedUnexecutedEventReturnsSlot) {
  // An engine destroyed with undelivered events must not leak slots: the
  // PooledMessage captured in the event releases on destruction.
  auto& mpool = dn::MessagePool::instance();
  dn::Message msg;
  msg.payload = dn::copy_payload(std::vector<std::byte>(8, std::byte{2}));
  { dn::PooledMessage parked(std::move(msg)); }  // never taken
  const std::size_t free_after = mpool.free_slots();
  EXPECT_GT(free_after, 0u);
}

TEST(PoolAllocator, RecyclesSingleObjectAllocations) {
  struct Blob {
    std::int64_t x[6];
  };
  auto shared = std::allocate_shared<Blob>(dn::PoolAllocator<Blob>{});
  const void* first = shared.get();
  shared.reset();  // control block + object go to the type's free list
  const std::size_t allocs_before = g_allocs;
  auto again = std::allocate_shared<Blob>(dn::PoolAllocator<Blob>{});
  EXPECT_EQ(g_allocs, allocs_before);  // served from the free list
  EXPECT_EQ(first, again.get());
}

// ---------------------------------------------------------------------------
// Pool bounds across sessions.  The pools keep every node they ever created
// reachable, so LeakSanitizer cannot see unbounded growth; these tests pin
// it instead.  Identical sessions run back to back must leave every
// (session, lane) shard at the size the second session left it.
// ---------------------------------------------------------------------------

struct ShardSize {
  std::size_t slots = 0, buffers = 0, capacity = 0;
};

// The first kLanesChecked lanes of every session shard (run_session claims
// a session slot of its own).
std::vector<ShardSize> shard_sizes() {
  constexpr std::uint32_t kLanesChecked = 8;
  std::vector<ShardSize> sizes;
  for (std::uint32_t session = 0; session < du::kMaxSessions; ++session) {
    for (std::uint32_t lane = 0; lane < kLanesChecked; ++lane) {
      du::SessionGuard in_session(session);
      du::LaneGuard on_lane(lane);
      const auto& buffers = dn::BufferPool::instance();
      sizes.push_back({dn::MessagePool::instance().total_slots(),
                       buffers.total_buffers(), buffers.total_capacity()});
    }
  }
  return sizes;
}

void expect_pools_bounded_across_sessions(const std::string& spec_text) {
  dsv::Reject reject;
  const auto spec = dsv::JobSpec::from_text(spec_text, reject);
  ASSERT_TRUE(spec.has_value()) << reject.message;
  std::vector<ShardSize> after_second;
  for (int session = 1; session <= 5; ++session) {
    const dsv::SessionResult result = dsv::run_session(*spec);
    ASSERT_TRUE(result.ok) << result.error;
    if (session == 2) after_second = shard_sizes();
  }
  const std::vector<ShardSize> after_fifth = shard_sizes();
  ASSERT_EQ(after_fifth.size(), after_second.size());
  for (std::size_t i = 0; i < after_fifth.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(after_fifth[i].slots, after_second[i].slots);
    EXPECT_EQ(after_fifth[i].buffers, after_second[i].buffers);
    EXPECT_EQ(after_fifth[i].capacity, after_second[i].capacity);
  }
}

// Halo rows cross between booster partitions and CBP frames reach the
// cluster partition: slots and buffers created on one lane are released on
// another and must find their way back.
TEST(PoolBound, PartitionedSessionsDoNotGrowThePools) {
  expect_pools_bounded_across_sessions(
      R"({"workload": "stencil", "cluster": 4, "booster": 8, "gateways": 2,)"
      R"( "procs": 8, "partitions": 3})");
}

// Each offload carries a 294,912-byte input next to many small messages: a
// large payload must not leave a small-message buffer enlarged.
TEST(PoolBound, LargePayloadSessionsDoNotGrowThePools) {
  expect_pools_bounded_across_sessions(
      R"({"workload": "cholesky", "cluster": 4, "booster": 32, "gateways": 2,)"
      R"( "procs": 32})");
}

// ---------------------------------------------------------------------------
// Packed link-index aliasing guard (satellite: TorusFabric::pack)
// ---------------------------------------------------------------------------

TEST(TorusLinkIndex, ChannelOutsideRouterRangeIsRejected) {
  using TF = dn::TorusFabric;
  EXPECT_EQ(TF::packed_link_index(0, 0), 0);
  EXPECT_EQ(TF::packed_link_index(2, 3), 2 * TF::kChannelsPerRouter + 3);
  // Channel 16 of router 0 would alias channel 0 of router 1.
  EXPECT_THROW(TF::packed_link_index(0, TF::kChannelsPerRouter),
               deep::util::UsageError);
  EXPECT_THROW(TF::packed_link_index(1, -1), deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// Route-table equivalence vs an independent dimension-ordered walker
// ---------------------------------------------------------------------------

struct RefTorus {
  std::array<int, 3> dims;

  int displacement(int from, int to, int dim) const {
    const int n = dims[dim];
    int d = (to - from) % n;
    if (d < 0) d += n;
    if (d * 2 > n) d -= n;  // ties go positive, like the fabric
    return d;
  }

  int linear(dn::TorusCoord c) const {
    return (c.z * dims[1] + c.y) * dims[0] + c.x;
  }

  // Per-hop dimension-ordered walk (the pre-memoisation algorithm): the
  // sequence of linear coordinates visited from a to b, endpoints included.
  std::vector<int> route_linears(dn::TorusCoord a, dn::TorusCoord b) const {
    std::vector<int> out{linear(a)};
    dn::TorusCoord cur = a;
    for (int dim = 0; dim < 3; ++dim) {
      int* axis = dim == 0 ? &cur.x : dim == 1 ? &cur.y : &cur.z;
      const int target = dim == 0 ? b.x : dim == 1 ? b.y : b.z;
      int d = displacement(*axis, target, dim);
      const int step = d > 0 ? 1 : -1;
      const int n = dims[dim];
      while (d != 0) {
        *axis = ((*axis + step) % n + n) % n;
        out.push_back(linear(cur));
        d -= step;
      }
    }
    return out;
  }
};

void expect_routes_match(const std::array<int, 3>& dims) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = dims;
  dn::TorusFabric fabric(eng, "t", p);
  const int n = dims[0] * dims[1] * dims[2];
  for (int i = 0; i < n; ++i) fabric.attach(i);  // node i at linear i
  const RefTorus ref{dims};
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const auto expected =
          ref.route_linears(fabric.coord_of(s), fabric.coord_of(d));
      const auto actual = fabric.route_linears(s, d);
      ASSERT_EQ(actual, expected) << "dims {" << dims[0] << "," << dims[1]
                                  << "," << dims[2] << "} src " << s
                                  << " dst " << d;
      // The memoised route length must also agree with the analytic count.
      ASSERT_EQ(static_cast<int>(actual.size()) - 1, fabric.hops(s, d));
    }
  }
}

TEST(TorusRouteTable, MatchesPerHopWalkOnCube) {
  expect_routes_match({4, 4, 4});  // even dims: exercises the wrap tie-break
}

TEST(TorusRouteTable, MatchesPerHopWalkOnAsymmetricTorus) {
  expect_routes_match({5, 3, 2});  // odd wrap-around + tiny dimensions
}

TEST(TorusRouteTable, MatchesPerHopWalkOnDegenerateDims) {
  expect_routes_match({6, 1, 1});  // ring
  expect_routes_match({1, 1, 1});  // single node, src == dst route
  expect_routes_match({1, 4, 1});  // ring on the middle dimension
}

TEST(TorusRouteTable, WrapAroundTakesShorterDirection) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {5, 1, 1};
  dn::TorusFabric fabric(eng, "t", p);
  for (int i = 0; i < 5; ++i) fabric.attach(i);
  // 0 -> 4 is one hop backwards across the wrap, not four forwards.
  EXPECT_EQ(fabric.route_linears(0, 4), (std::vector<int>{0, 4}));
  EXPECT_EQ(fabric.hops(0, 4), 1);
}

// ---------------------------------------------------------------------------
// The headline claim: zero steady-state allocations on the send path
// ---------------------------------------------------------------------------

dn::Message raw_message(deep::hw::NodeId src, deep::hw::NodeId dst) {
  static const std::vector<std::byte> bytes(64, std::byte{0x5A});
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.port = dn::Port::Raw;
  m.size_bytes = 128;
  dm::WireHeader h;
  h.kind = dm::MsgKind::Eager;
  h.bytes = 64;
  m.header = h;
  m.payload = dn::copy_payload(bytes);
  return m;
}

// Each proof runs twice: bare, and with an obs::Registry attached to the
// engine.  Metric recording is pointer-chase + integer adds into cells the
// registry allocated at registration time, so it must not cost the hot path
// a single heap allocation either.

void expect_warm_torus_path_alloc_free(bool with_metrics) {
  ds::Engine eng;
  dob::Registry reg;
  if (with_metrics) eng.set_metrics(&reg);
  dn::TorusParams p;
  p.dims = {4, 4, 4};
  dn::TorusFabric fabric(eng, "t", p);
  std::int64_t sink = 0;
  for (int i = 0; i < 64; ++i)
    fabric.attach(i).bind(dn::Port::Raw,
                          [&sink](dn::Message&& m) { sink += m.size_bytes; });
  const auto traffic = [&] {
    for (int i = 0; i < 64; ++i)
      fabric.send(raw_message(i, (i * 29 + 7) % 64), dn::Service::Small);
    eng.run();
  };
  traffic();  // warm-up: routes memoised, pools grown to high-water mark
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();  // measured: header in place, payload/slots/events all pooled
  EXPECT_EQ(g_allocs, allocs_before)
      << "steady-state torus send path allocated"
      << (with_metrics ? " (with metrics attached)" : "");
  EXPECT_GT(sink, 0);
  if (with_metrics) {
    EXPECT_GT(reg.value("net.t.messages"), 0)
        << "registry was attached but recorded nothing";
  }
}

TEST(ZeroAllocation, WarmTorusSendPathDoesNotAllocate) {
  expect_warm_torus_path_alloc_free(/*with_metrics=*/false);
}

TEST(ZeroAllocation, WarmTorusSendPathWithMetricsDoesNotAllocate) {
  expect_warm_torus_path_alloc_free(/*with_metrics=*/true);
}

void expect_warm_crossbar_path_alloc_free(bool with_metrics) {
  ds::Engine eng;
  dob::Registry reg;
  if (with_metrics) eng.set_metrics(&reg);
  dn::CrossbarFabric ib(eng, "ib", {});
  for (int i = 0; i < 16; ++i)
    ib.attach(i).bind(dn::Port::Raw, [](dn::Message&&) {});
  const auto traffic = [&] {
    for (int i = 0; i < 16; ++i)
      ib.send(raw_message(i, (i + 1) % 16), dn::Service::Small);
    eng.run();
  };
  traffic();
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();
  EXPECT_EQ(g_allocs, allocs_before)
      << "steady-state crossbar send path allocated"
      << (with_metrics ? " (with metrics attached)" : "");
  if (with_metrics) {
    EXPECT_GT(reg.value("net.ib.messages"), 0);
  }
}

TEST(ZeroAllocation, WarmCrossbarSendPathDoesNotAllocate) {
  expect_warm_crossbar_path_alloc_free(/*with_metrics=*/false);
}

TEST(ZeroAllocation, WarmCrossbarSendPathWithMetricsDoesNotAllocate) {
  expect_warm_crossbar_path_alloc_free(/*with_metrics=*/true);
}

void expect_warm_cbp_path_alloc_free(bool with_metrics) {
  ds::Engine eng;
  dob::Registry reg;
  if (with_metrics) eng.set_metrics(&reg);
  dn::CrossbarFabric ib(eng, "ib", {});
  dn::TorusParams tp;
  tp.dims = {4, 2, 1};
  dn::TorusFabric extoll(eng, "extoll", tp);
  dc::BridgedTransport bridge(eng, ib, extoll);
  for (deep::hw::NodeId n = 0; n < 4; ++n) {
    ib.attach(n);
    bridge.register_cluster_node(n);
  }
  for (deep::hw::NodeId n = 10; n < 14; ++n) {
    extoll.attach(n);
    bridge.register_booster_node(n);
    bridge.home_nic(n).bind(dn::Port::Raw, [](dn::Message&&) {});
  }
  ib.attach(20);
  extoll.attach(20);
  bridge.register_gateway(20);
  const auto traffic = [&] {
    for (int i = 0; i < 16; ++i)
      bridge.send(raw_message(i % 4, 10 + i % 4), dn::Service::Small);
    eng.run();
  };
  traffic();
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();
  EXPECT_EQ(g_allocs, allocs_before)
      << "steady-state CBP bridge path allocated"
      << (with_metrics ? " (with metrics attached)" : "");
  if (with_metrics) {
    EXPECT_GT(reg.value("cbp.forwarded"), 0);
  }
}

TEST(ZeroAllocation, WarmCbpBridgePathDoesNotAllocate) {
  expect_warm_cbp_path_alloc_free(/*with_metrics=*/false);
}

TEST(ZeroAllocation, WarmCbpBridgePathWithMetricsDoesNotAllocate) {
  expect_warm_cbp_path_alloc_free(/*with_metrics=*/true);
}

// Rank 0 isend+wait, rank 1 irecv+wait of one small eager message.  A wait
// blocks in every cycle, so the cycle covers request pooling, the block
// note and the wake path.  Both rank fibers run on this thread, so the tally
// between rank 0's two marks covers kCounted whole cycles of both sides.
void expect_warm_mpi_eager_cycle_alloc_free(bool with_metrics) {
  constexpr int kWarm = 50, kCounted = 200;
  dob::Registry reg;
  deep::testing::MpiRig rig(2);
  if (with_metrics) rig.engine().set_metrics(&reg);
  std::size_t before = 0, after = 0;
  rig.run([&](dm::Mpi& mpi) {
    std::vector<std::byte> buf(64, std::byte{1});
    for (int i = 0; i < kWarm + kCounted; ++i) {
      if (mpi.rank() == 0) {
        if (i == kWarm) before = g_allocs;
        mpi.wait(mpi.isend_bytes(mpi.world(), 1, 0, buf));
      } else {
        mpi.wait(mpi.irecv_bytes(mpi.world(), 0, 0, buf));
      }
    }
    if (mpi.rank() == 0) after = g_allocs;
  });
  EXPECT_GT(after, 0u);
  EXPECT_EQ(after - before, 0u)
      << "steady-state MPI eager cycle allocated"
      << (with_metrics ? " (with metrics attached)" : "");
}

TEST(ZeroAllocation, WarmMpiEagerCycleDoesNotAllocate) {
  expect_warm_mpi_eager_cycle_alloc_free(/*with_metrics=*/false);
}

TEST(ZeroAllocation, WarmMpiEagerCycleWithMetricsDoesNotAllocate) {
  expect_warm_mpi_eager_cycle_alloc_free(/*with_metrics=*/true);
}

// The register-blocked Cholesky numerics keep their accumulators on the
// stack: neither the factorisation (3 x 3 tiles run potrf, trsm, syrk and
// gemm) nor factor_error touches the heap, at the service tile size (24)
// and at sizes that leave every tail length of the row blocks.
TEST(ZeroAllocation, CholeskyKernelsAndFactorErrorDoNotAllocate) {
  for (const int ts : {1, 5, 24, 37}) {
    SCOPED_TRACE("ts=" + std::to_string(ts));
    da::TiledMatrix original(3, ts), factor(3, ts);
    da::fill_spd(original, 5);
    factor.storage() = original.storage();
    const std::size_t before = g_allocs;
    da::cholesky_reference(factor);
    const double err = da::factor_error(factor, original);
    EXPECT_EQ(g_allocs, before) << "Cholesky numerics allocated";
    EXPECT_LT(err, 1e-9);
  }
}

}  // namespace
