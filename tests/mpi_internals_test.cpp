// White-box tests of the MPI layer internals: endpoint queues, context-block
// allocation, wire accounting, and protocol edge cases.

#include <gtest/gtest.h>

#include "mpi_rig.hpp"
#include "util/error.hpp"

namespace dm = deep::mpi;
namespace ds = deep::sim;
using deep::testing::BridgedMpiRig;
using deep::testing::MpiRig;

TEST(EndpointInternals, UnexpectedQueueFillsAndDrains) {
  MpiRig rig(2);
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        const std::vector<int> v{i};
        mpi.send<int>(mpi.world(), 1, i, std::span<const int>(v));
      }
      std::byte ack[1];
      mpi.recv_bytes(mpi.world(), 1, 99, ack);
    } else {
      mpi.ctx().delay(ds::milliseconds(1));
      auto& ep = rig.system().endpoint(mpi.world().addr_of(1).ep);
      EXPECT_EQ(ep.unexpected_count(), 5u);
      std::vector<int> v(1);
      for (int i = 4; i >= 0; --i)
        mpi.recv<int>(mpi.world(), 0, i, std::span<int>(v));
      EXPECT_EQ(ep.unexpected_count(), 0u);
      const std::byte ack[1] = {};
      mpi.send_bytes(mpi.world(), 0, 99, ack);
    }
  });
}

TEST(EndpointInternals, PostedQueueVisible) {
  MpiRig rig(2);
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 1) {
      std::vector<int> a(1), b(1);
      auto r1 = mpi.irecv<int>(mpi.world(), 0, 1, std::span<int>(a));
      auto r2 = mpi.irecv<int>(mpi.world(), 0, 2, std::span<int>(b));
      auto& ep = rig.system().endpoint(mpi.world().addr_of(1).ep);
      EXPECT_EQ(ep.posted_count(), 2u);
      mpi.wait(r1);
      mpi.wait(r2);
      EXPECT_EQ(ep.posted_count(), 0u);
      EXPECT_EQ(a[0], 10);
      EXPECT_EQ(b[0], 20);
    } else {
      mpi.ctx().delay(ds::microseconds(100));
      const std::vector<int> v1{10}, v2{20};
      mpi.send<int>(mpi.world(), 1, 1, std::span<const int>(v1));
      mpi.send<int>(mpi.world(), 1, 2, std::span<const int>(v2));
    }
  });
}

TEST(EndpointInternals, ReorderBufferEngagesUnderRoundRobin) {
  // With round-robin gateways and mixed service classes, some messages must
  // arrive out of order and be parked until their predecessors arrive.
  BridgedMpiRig rig(1, 1, 3, deep::cbp::GatewayPolicy::RoundRobin);
  std::size_t peak_parked = 0;
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 30; ++i) {
        // Alternate tiny (fast path) and huge (slow path) messages.
        std::vector<int> v(i % 2 == 0 ? 1 : 65536, i);
        mpi.send<int>(mpi.world(), 1, 0, std::span<const int>(v));
      }
    } else {
      auto& ep = rig.system().endpoint(mpi.world().addr_of(1).ep);
      for (int i = 0; i < 30; ++i) {
        std::vector<int> v(65536);
        mpi.recv<int>(mpi.world(), 0, 0, std::span<int>(v));
        ASSERT_EQ(v[0], i);  // order restored
      }
      peak_parked = ep.lifetime_parked();
    }
  });
  EXPECT_GT(peak_parked, 0u);  // the wire really did reorder
}

namespace {

// A zero-byte eager wire message of one flow, as the NIC would hand it over.
deep::net::Message flow_msg(dm::EpId src, dm::EpId dst, std::uint64_t seq,
                            dm::Tag tag) {
  dm::WireHeader h;
  h.kind = dm::MsgKind::Eager;
  h.context = 7;
  h.src_rank = 0;
  h.tag = tag;
  h.src_ep = src;
  h.dst_ep = dst;
  h.seq = seq;
  deep::net::Message m;
  m.port = deep::net::Port::Mpi;
  m.header = h;
  return m;
}

}  // namespace

TEST(EndpointInternals, LostSequenceReleasesParkedMessagesInOrder) {
  // Drives one endpoint's inbound flows directly: arrivals ahead of a hole
  // are parked, note_lost_seq fills the hole, and the parked messages are
  // delivered in sequence order.  A second source's flow is independent.
  MpiRig rig(1);
  auto& sys = rig.system();
  dm::Endpoint& ep = sys.create_endpoint(0);
  const dm::EpId a = sys.create_endpoint(0).id();
  const dm::EpId b = sys.create_endpoint(0).id();

  ep.on_message(flow_msg(a, ep.id(), 1, 101));  // ahead of seq 0
  EXPECT_EQ(ep.parked_count(), 1u);
  EXPECT_EQ(ep.unexpected_count(), 0u);
  ep.note_lost_seq(a, 0);  // the hole it waited on is gone
  EXPECT_EQ(ep.parked_count(), 0u);
  EXPECT_EQ(ep.unexpected_count(), 1u);

  ep.on_message(flow_msg(a, ep.id(), 3, 103));  // parked behind seq 2
  ep.note_lost_seq(a, 4);                       // a later hole, noted early
  EXPECT_EQ(ep.parked_count(), 1u);
  ep.on_message(flow_msg(b, ep.id(), 0, 200));  // other flow: straight through
  EXPECT_EQ(ep.parked_count(), 1u);
  EXPECT_EQ(ep.unexpected_count(), 2u);
  ep.on_message(flow_msg(a, ep.id(), 2, 102));  // releases 3, skips lost 4
  EXPECT_EQ(ep.parked_count(), 0u);
  ep.on_message(flow_msg(a, ep.id(), 5, 105));  // in order again
  EXPECT_EQ(ep.parked_count(), 0u);
  EXPECT_EQ(ep.unexpected_count(), 5u);
  EXPECT_EQ(ep.lifetime_parked(), 2u);

  // The unexpected queue holds them in delivery order.
  for (const dm::Tag tag : {101, 200, 102, 103, 105}) {
    const dm::RequestPtr r = ep.post_recv(7, dm::kAnySource, dm::kAnyTag, {});
    ASSERT_TRUE(r->done);
    EXPECT_EQ(r->status.tag, tag);
  }
  EXPECT_EQ(ep.unexpected_count(), 0u);
}

TEST(MpiSystemInternals, ContextBlocksAreMemoised) {
  MpiRig rig(1);
  auto& sys = rig.system();
  const auto a = sys.context_block(7, 1);
  const auto b = sys.context_block(7, 1);
  const auto c = sys.context_block(7, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GE(static_cast<std::uint64_t>(std::llabs(static_cast<long long>(c - a))),
            dm::MpiSystem::kContextStride);
  const auto f1 = sys.fresh_context_block();
  const auto f2 = sys.fresh_context_block();
  EXPECT_NE(f1, f2);
}

TEST(MpiSystemInternals, UnknownEndpointRejected) {
  MpiRig rig(1);
  EXPECT_THROW(rig.system().endpoint(999999), deep::util::UsageError);
}

TEST(WireAccounting, HeaderBytesChargedOnWire) {
  // A zero-byte barrier-style message still moves header_bytes on the wire.
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) { mpi.barrier(mpi.world()); });
  const auto& stats = rig.fabric().stats();
  EXPECT_GT(stats.messages, 0);
  EXPECT_EQ(stats.bytes % 64, 0);  // all barrier messages are bare headers
  EXPECT_EQ(stats.bytes, stats.messages * 64);
}

TEST(WireAccounting, EagerPayloadPlusHeader) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const std::vector<std::byte> v(100);
      mpi.send_bytes(mpi.world(), 1, 0, v);
    } else {
      std::vector<std::byte> v(100);
      mpi.recv_bytes(mpi.world(), 0, 0, v);
    }
  });
  EXPECT_EQ(rig.fabric().stats().bytes, 100 + 64);
}

TEST(WireAccounting, RendezvousCostsThreeMessages) {
  dm::MpiParams params;
  params.eager_threshold = 0;
  MpiRig rig(2, params);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const std::vector<std::byte> v(1000);
      mpi.send_bytes(mpi.world(), 1, 0, v);
    } else {
      std::vector<std::byte> v(1000);
      mpi.recv_bytes(mpi.world(), 0, 0, v);
    }
  });
  // RTS + CTS + DATA.
  EXPECT_EQ(rig.fabric().stats().messages, 3);
  EXPECT_EQ(rig.fabric().stats().bytes, 64 + 64 + 1000 + 64);
}

TEST(ProtocolEdge, ZeroByteMessages) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send_bytes(mpi.world(), 1, 0, {});
    } else {
      const auto st = mpi.recv_bytes(mpi.world(), 0, 0, {});
      EXPECT_EQ(st.bytes, 0);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(ProtocolEdge, ManySmallMessagesKeepFifoPerPair) {
  dm::MpiParams params;
  params.eager_threshold = 64;  // mix eager and rendezvous across the stream
  MpiRig rig(3, params);
  rig.run([](dm::Mpi& mpi) {
    constexpr int kN = 40;
    if (mpi.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::vector<int> v(1 + (i % 5) * 40, i);  // sizes straddle threshold
        mpi.send<int>(mpi.world(), 1 + (i % 2), 7, std::span<const int>(v));
      }
    } else {
      int expected = mpi.rank() - 1;
      for (int i = 0; i < kN / 2; ++i) {
        std::vector<int> v(200);
        mpi.recv<int>(mpi.world(), 0, 7, std::span<int>(v));
        ASSERT_EQ(v[0], expected);
        expected += 2;
      }
    }
  });
}
