// Unit tests for the Cluster-Booster Protocol bridging layer.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "cbp/gateway.hpp"
#include "cbp/transport.hpp"
#include "mpi/mpi.hpp"
#include "net/crossbar.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

#include "mpi_rig.hpp"

namespace dc = deep::cbp;
namespace dn = deep::net;
namespace ds = deep::sim;

namespace {

// Node-id convention for these tests: 0..3 cluster, 10..13 booster, 20..21
// gateways.
struct Rig {
  ds::Engine eng;
  dn::CrossbarFabric ib{eng, "ib", {}};
  dn::TorusFabric extoll{eng, "extoll", [] {
                           dn::TorusParams p;
                           p.dims = {4, 2, 1};
                           return p;
                         }()};
  dc::BridgedTransport bridge;

  explicit Rig(dc::BridgeParams params = {}, int gateways = 1)
      : bridge(eng, ib, extoll, params) {
    for (deep::hw::NodeId n = 0; n < 4; ++n) {
      ib.attach(n);
      bridge.register_cluster_node(n);
    }
    for (deep::hw::NodeId n = 10; n < 14; ++n) {
      extoll.attach(n);
      bridge.register_booster_node(n);
    }
    for (int g = 0; g < gateways; ++g) {
      const deep::hw::NodeId id = 20 + g;
      ib.attach(id);
      extoll.attach(id);
      bridge.register_gateway(id);
    }
  }
};

dn::Message mk(deep::hw::NodeId src, deep::hw::NodeId dst, std::int64_t size) {
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = size;
  m.port = dn::Port::Raw;
  return m;
}

}  // namespace

TEST(Bridge, SameSideTrafficStaysDirect) {
  Rig rig;
  ds::TimePoint arrival{};
  rig.bridge.home_nic(1).bind(dn::Port::Raw,
                              [&](dn::Message&&) { arrival = rig.eng.now(); });
  rig.bridge.send(mk(0, 1, 0), dn::Service::Small);
  rig.eng.run();
  // Pure InfiniBand latency: no gateway was involved.
  EXPECT_EQ(arrival.ps, rig.ib.params().latency.ps);
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_messages, 0);
}

TEST(Bridge, BoosterSideTrafficUsesTorus) {
  Rig rig;
  ds::TimePoint arrival{};
  rig.bridge.home_nic(11).bind(dn::Port::Raw,
                               [&](dn::Message&&) { arrival = rig.eng.now(); });
  rig.bridge.send(mk(10, 11, 64), dn::Service::Small);
  rig.eng.run();
  EXPECT_LT(arrival.ps, ds::from_micros(1.0).ps);  // EXTOLL, not IB
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_messages, 0);
}

TEST(Bridge, CrossTrafficForwardsThroughGateway) {
  Rig rig;
  ds::TimePoint arrival{};
  dn::Message got;
  rig.bridge.home_nic(12).bind(dn::Port::Raw, [&](dn::Message&& m) {
    arrival = rig.eng.now();
    got = std::move(m);
  });
  rig.bridge.send(mk(0, 12, 1024), dn::Service::Small);
  rig.eng.run();
  EXPECT_GT(arrival.ps, 0);
  EXPECT_EQ(got.dst, 12);
  EXPECT_EQ(got.size_bytes, 1024);
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_messages, 1);
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_bytes,
            1024 + rig.bridge.params().frame_header_bytes);
  // Cross-fabric costs more than either fabric alone: at least IB latency
  // plus SMFU processing.
  EXPECT_GT(arrival.ps,
            (rig.ib.params().latency + rig.bridge.params().smfu_latency).ps);
}

TEST(Bridge, CrossTrafficWorksBothDirections) {
  Rig rig;
  int cluster_got = 0, booster_got = 0;
  rig.bridge.home_nic(3).bind(dn::Port::Raw,
                              [&](dn::Message&&) { ++cluster_got; });
  rig.bridge.home_nic(13).bind(dn::Port::Raw,
                               [&](dn::Message&&) { ++booster_got; });
  rig.bridge.send(mk(13, 3, 256), dn::Service::Small);   // booster -> cluster
  rig.bridge.send(mk(3, 13, 256), dn::Service::Small);   // cluster -> booster
  rig.eng.run();
  EXPECT_EQ(cluster_got, 1);
  EXPECT_EQ(booster_got, 1);
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_messages, 2);
}

TEST(Bridge, PayloadSurvivesBridging) {
  Rig rig;
  std::vector<std::byte> data(128);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  dn::Message msg = mk(0, 10, 128);
  msg.payload = dn::make_payload(std::move(data));
  bool checked = false;
  rig.bridge.home_nic(10).bind(dn::Port::Raw, [&](dn::Message&& m) {
    ASSERT_TRUE(m.payload);
    ASSERT_EQ(m.payload->size(), 128u);
    for (std::size_t i = 0; i < 128; ++i)
      EXPECT_EQ((*m.payload)[i], static_cast<std::byte>(i));
    checked = true;
  });
  rig.bridge.send(std::move(msg), dn::Service::Small);
  rig.eng.run();
  EXPECT_TRUE(checked);
}

TEST(Bridge, ByPairPolicyPinsGateway) {
  dc::BridgeParams params;
  params.policy = dc::GatewayPolicy::ByPair;
  Rig rig(params, 2);
  rig.bridge.home_nic(12).bind(dn::Port::Raw, [](dn::Message&&) {});
  for (int i = 0; i < 6; ++i)
    rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.eng.run();
  const auto a = rig.bridge.gateway_stats(20).forwarded_messages;
  const auto b = rig.bridge.gateway_stats(21).forwarded_messages;
  // All six took the same (hash-selected) gateway.
  EXPECT_EQ(a + b, 6);
  EXPECT_TRUE(a == 0 || b == 0);
}

TEST(Bridge, RoundRobinSpreadsLoad) {
  dc::BridgeParams params;
  params.policy = dc::GatewayPolicy::RoundRobin;
  Rig rig(params, 2);
  rig.bridge.home_nic(12).bind(dn::Port::Raw, [](dn::Message&&) {});
  for (int i = 0; i < 6; ++i)
    rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.eng.run();
  EXPECT_EQ(rig.bridge.gateway_stats(20).forwarded_messages, 3);
  EXPECT_EQ(rig.bridge.gateway_stats(21).forwarded_messages, 3);
}

TEST(Bridge, GatewaySmfuSerialises) {
  // Two large cross-fabric messages through one gateway: the second must
  // wait for the first to clear the SMFU.
  Rig rig;
  std::vector<ds::TimePoint> arrivals;
  rig.bridge.home_nic(12).bind(dn::Port::Raw, [&](dn::Message&&) {
    arrivals.push_back(rig.eng.now());
  });
  const std::int64_t size = 4'500'000;  // 1 ms of SMFU time at 4.5 GB/s
  rig.bridge.send(mk(0, 12, size), dn::Service::Bulk);
  rig.bridge.send(mk(1, 12, size), dn::Service::Bulk);
  rig.eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double smfu_ms =
      static_cast<double>(size + rig.bridge.params().frame_header_bytes) /
      rig.bridge.params().smfu_bandwidth_bytes_per_sec * 1e3;
  EXPECT_GT((arrivals[1] - arrivals[0]).millis(), 0.5 * smfu_ms);
}

TEST(Bridge, RegistrationValidation) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  dn::TorusParams tp;
  tp.dims = {2, 1, 1};
  dn::TorusFabric extoll(eng, "extoll", tp);
  dc::BridgedTransport bridge(eng, ib, extoll);

  EXPECT_THROW(bridge.register_cluster_node(0), deep::util::UsageError);
  ib.attach(0);
  bridge.register_cluster_node(0);
  EXPECT_THROW(bridge.register_cluster_node(0), deep::util::UsageError);

  EXPECT_THROW(bridge.register_gateway(1), deep::util::UsageError);
  ib.attach(1);
  EXPECT_THROW(bridge.register_gateway(1), deep::util::UsageError);
  extoll.attach(1);
  bridge.register_gateway(1);

  EXPECT_THROW(bridge.send(mk(0, 99, 8), dn::Service::Small),
               deep::util::UsageError);
}

TEST(Bridge, CrossSendWithoutGatewayFails) {
  dc::BridgeParams params;
  Rig rig(params, 0);
  EXPECT_THROW(rig.bridge.send(mk(0, 10, 8), dn::Service::Small),
               deep::util::UsageError);
}

TEST(Bridge, SideQueries) {
  Rig rig;
  EXPECT_TRUE(rig.bridge.on_cluster_side(0));
  EXPECT_FALSE(rig.bridge.on_booster_side(0));
  EXPECT_TRUE(rig.bridge.on_booster_side(10));
  EXPECT_TRUE(rig.bridge.on_cluster_side(20));
  EXPECT_TRUE(rig.bridge.on_booster_side(20));
  EXPECT_THROW(rig.bridge.on_cluster_side(99), deep::util::UsageError);
}

TEST(Bridge, SideTableEdgeCases) {
  // Sides live in a table indexed by node id: sparse ids, a second
  // registration on any side, and unknown or out-of-range ids.
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  dn::TorusParams tp;
  tp.dims = {4, 1, 1};
  dn::TorusFabric extoll(eng, "extoll", tp);
  dc::BridgedTransport bridge(eng, ib, extoll);
  ib.attach(9);
  bridge.register_cluster_node(9);
  extoll.attach(2);
  bridge.register_booster_node(2);
  ib.attach(5);
  extoll.attach(5);
  bridge.register_gateway(5);

  EXPECT_TRUE(bridge.on_cluster_side(9));
  EXPECT_FALSE(bridge.on_booster_side(9));
  EXPECT_TRUE(bridge.on_booster_side(2));
  EXPECT_TRUE(bridge.on_cluster_side(5) && bridge.on_booster_side(5));

  EXPECT_THROW(bridge.register_booster_node(2), deep::util::UsageError);
  EXPECT_THROW(bridge.register_cluster_node(5), deep::util::UsageError);
  EXPECT_THROW(bridge.register_booster_node(5), deep::util::UsageError);
  EXPECT_THROW(bridge.register_gateway(5), deep::util::UsageError);
  EXPECT_TRUE(bridge.on_cluster_side(5) && bridge.on_booster_side(5));

  for (const deep::hw::NodeId bad : {3, 0, 8, 10, -1, 1 << 20}) {
    SCOPED_TRACE("node " + std::to_string(bad));
    EXPECT_THROW(bridge.on_cluster_side(bad), deep::util::SimError);
    EXPECT_THROW(bridge.on_booster_side(bad), deep::util::SimError);
  }
}

TEST(DirectTransport, DeliversOnSingleFabric) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  dc::DirectTransport t(ib);
  ib.attach(0);
  ib.attach(1);
  int got = 0;
  t.home_nic(1).bind(dn::Port::Raw, [&](dn::Message&&) { ++got; });
  t.send(mk(0, 1, 64), dn::Service::Small);
  eng.run();
  EXPECT_EQ(got, 1);
}

// ---------------------------------------------------------------------------
// Retry / backoff / failover (fault-injection support).
// ---------------------------------------------------------------------------

TEST(BridgeRetry, BoundedRetriesThenLoss) {
  // A frame bound for a gateway that dies while it is in flight must be
  // retried at most max_retries times and then reported lost -- never
  // retried forever.
  Rig rig;  // one gateway, defaults: max_retries = 4
  std::vector<dn::Message> lost;
  rig.bridge.set_loss_handler(
      [&](dn::Message&& m) { lost.push_back(std::move(m)); });
  rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.bridge.set_gateway_up(20, false);  // dies with the frame in flight
  rig.eng.run();

  EXPECT_EQ(rig.bridge.gateway_stats(20).timeouts, 1);
  // With the only gateway down, every retry is unrouted; the budget is
  // consumed exactly once per backoff round.
  EXPECT_EQ(rig.bridge.total_retries(), rig.bridge.params().max_retries);
  EXPECT_EQ(rig.bridge.frames_lost(), 1);
  ASSERT_EQ(lost.size(), 1u);
  // The *inner* message surfaces, not the CBP wrapper.
  EXPECT_EQ(lost[0].dst, 12);
  EXPECT_EQ(lost[0].port, dn::Port::Raw);
  EXPECT_EQ(lost[0].size_bytes, 64);
}

TEST(BridgeRetry, BackoffIsMonotone) {
  // Exponential backoff must stretch the retry schedule: with factor 2 the
  // loss lands after T*(1+2+4+8) of waiting, with factor 1 after only 4*T.
  const auto loss_time = [](double factor) {
    dc::BridgeParams params;
    params.retry_timeout = ds::from_micros(10);
    params.backoff_factor = factor;
    params.max_retries = 4;
    Rig rig(params);
    std::int64_t when = -1;
    rig.bridge.set_loss_handler(
        [&](dn::Message&&) { when = rig.eng.now().ps; });
    rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
    rig.bridge.set_gateway_up(20, false);
    rig.eng.run();
    EXPECT_GE(when, 0) << "frame was never reported lost";
    return when;
  };
  const std::int64_t flat = loss_time(1.0);
  const std::int64_t doubling = loss_time(2.0);
  EXPECT_GT(doubling, flat);
  // Lower bound: the doubling schedule alone sums to 15 * 10us.
  EXPECT_GE(doubling, ds::from_micros(150).ps);
  EXPECT_LT(flat, ds::from_micros(150).ps);
}

TEST(BridgeRetry, ByPairPolicyFailsOverToHealthyGateway) {
  dc::BridgeParams params;
  params.policy = dc::GatewayPolicy::ByPair;
  Rig rig(params, 2);
  int delivered = 0;
  rig.bridge.home_nic(12).bind(dn::Port::Raw,
                               [&](dn::Message&&) { ++delivered; });
  // Pair (0,12) hashes onto gateway 20; kill it with the frame in flight.
  rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.bridge.set_gateway_up(20, false);
  rig.eng.run();

  EXPECT_EQ(delivered, 1) << "failover should still deliver";
  EXPECT_EQ(rig.bridge.gateway_stats(20).timeouts, 1);
  EXPECT_EQ(rig.bridge.gateway_stats(21).failovers, 1);
  EXPECT_EQ(rig.bridge.gateway_stats(21).retries, 1);
  EXPECT_EQ(rig.bridge.frames_lost(), 0);
}

TEST(BridgeRetry, PinnedPolicyNeverFailsOver) {
  // Same scenario as above but with Pinned routing: the pair keeps retrying
  // its dead gateway, gateway 21 never carries anything, and the frame is
  // eventually lost.
  dc::BridgeParams params;
  params.policy = dc::GatewayPolicy::Pinned;
  Rig rig(params, 2);
  int delivered = 0;
  rig.bridge.home_nic(12).bind(dn::Port::Raw,
                               [&](dn::Message&&) { ++delivered; });
  rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.bridge.set_gateway_up(20, false);
  rig.eng.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.bridge.total_failovers(), 0);
  EXPECT_EQ(rig.bridge.gateway_stats(21).forwarded_messages, 0);
  // Every retry went back to the pinned gateway and timed out again.
  EXPECT_EQ(rig.bridge.gateway_stats(20).retries,
            rig.bridge.params().max_retries);
  EXPECT_EQ(rig.bridge.gateway_stats(20).timeouts,
            rig.bridge.params().max_retries + 1);
  EXPECT_EQ(rig.bridge.frames_lost(), 1);
}

TEST(BridgeRetry, WireDropTriggersRetryAndDelivers) {
  // A frame dropped on the wire (not at a gateway) re-enters the retry path
  // via the fabric drop handler and is delivered on the second attempt.
  Rig rig;
  int delivered = 0;
  rig.bridge.home_nic(12).bind(dn::Port::Raw,
                               [&](dn::Message&&) { ++delivered; });
  int cbp_seen = 0;
  rig.ib.set_drop_fn([&](const dn::Message& m) {
    return m.port == dn::Port::Cbp && ++cbp_seen == 1;  // drop first frame
  });
  rig.bridge.send(mk(0, 12, 64), dn::Service::Small);
  rig.eng.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.ib.stats().messages_dropped, 1);
  EXPECT_EQ(rig.bridge.gateway_stats(20).retries, 1);
  EXPECT_EQ(rig.bridge.total_failovers(), 0);  // same gateway, re-sent
  EXPECT_EQ(rig.bridge.frames_lost(), 0);
}

TEST(BridgeRetry, RetryParamValidation) {
  dc::BridgeParams params;
  params.backoff_factor = 0.5;  // would retry *faster* each round
  EXPECT_THROW(Rig rig(params), deep::util::UsageError);
  params = {};
  params.max_retries = -1;
  EXPECT_THROW(Rig rig(params), deep::util::UsageError);
  params = {};
  params.retry_timeout = ds::Duration{0};
  EXPECT_THROW(Rig rig(params), deep::util::UsageError);
}

TEST(BridgeRetry, ExhaustedRetriesSurfaceAsMpiErrorNotHang) {
  // End to end: a rank whose message dies on a dead gateway gets an
  // MpiError from wait(), and the simulation drains in bounded virtual
  // time -- it must never hang waiting for a frame that will not come.
  dc::BridgeParams bp;
  bp.retry_timeout = ds::from_micros(5);
  bp.max_retries = 2;
  bp.policy = dc::GatewayPolicy::Pinned;  // no second gateway anyway
  deep::testing::BridgedMpiRig rig(1, 1, 1, dc::GatewayPolicy::Pinned, {},
                                   bp);

  bool send_side_done = false;
  bool recv_error = false;
  rig.launch([&](deep::mpi::Mpi& mpi) {
    const auto& world = mpi.world();
    if (world.rank() == 0) {
      const std::int32_t v = 42;
      auto r = mpi.isend(world, 1, 7, std::span<const std::int32_t>(&v, 1));
      mpi.wait(r);  // eager send: completes locally even if the wire eats it
      send_side_done = true;
    } else {
      std::int32_t v = 0;
      auto r = mpi.irecv(world, 0, 7, std::span<std::int32_t>(&v, 1));
      try {
        mpi.wait(r);
      } catch (const deep::mpi::MpiError& e) {
        recv_error = true;
        EXPECT_EQ(e.code(), deep::mpi::ErrCode::MessageLost);
      }
    }
  });
  // Kill the single gateway (node 2) after the send is injected (~150 ns)
  // but before the frame arrives there (IB latency is 1.5 us).
  rig.engine().schedule_at(ds::TimePoint{500'000}, [&] {
    rig.bridge().set_gateway_up(2, false);
  });

  // Watchdog: the whole episode must drain well inside a second of virtual
  // time.  run_until returning false means the event queue emptied.
  EXPECT_FALSE(rig.engine().run_until(ds::TimePoint{ds::from_seconds(1).ps}));
  EXPECT_TRUE(send_side_done);
  EXPECT_TRUE(recv_error) << "loss never surfaced as an MpiError";
  EXPECT_GT(rig.bridge().frames_lost(), 0);
  EXPECT_GT(rig.system().messages_lost(), 0);
}

// A rank that exits with a receive still posted (e.g. after bailing out on
// an MpiError) must not leave the endpoint pointing into its freed stack: a
// message arriving after the exit lands in the endpoint-owned unexpected
// queue instead of being copied into the dead buffer.
TEST(BridgeRetry, LateArrivalAfterReceiverExitIsSafe) {
  deep::testing::BridgedMpiRig rig(1, 1, 1);
  rig.run([](deep::mpi::Mpi& mpi) {
    if (mpi.world().rank() == 1) {
      // Post and exit immediately: the buffer dies with this frame.
      std::vector<std::byte> buf(64);
      mpi.irecv_bytes(mpi.world(), 0, 9, std::span<std::byte>(buf));
      return;
    }
    std::vector<std::byte> data(64, std::byte{7});
    mpi.send_bytes(mpi.world(), 1, 9, std::span<const std::byte>(data));
  });
  // Rank 1 exited at t=0; the message crossed the bridge afterwards and
  // parked in its endpoint's unexpected queue (EpIds are 1-based: rank 1
  // is endpoint 2).
  EXPECT_EQ(rig.system().endpoint(2).unexpected_count(), 1u);
}
