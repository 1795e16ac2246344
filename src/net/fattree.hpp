#pragma once
// FatTreeFabric: a two-level fat-tree, the realistic construction of the
// cluster's InfiniBand network.
//
// Nodes attach to leaf switches (`leaf_radix` nodes per leaf); every leaf
// has `uplinks` links to the spine.  With uplinks == leaf_radix the tree is
// non-blocking and behaves like the idealised crossbar; smaller uplink
// counts model the oversubscribed (cheaper) fabrics real clusters deploy,
// where cross-leaf traffic contends on the uplinks.
//
// Routing is ECMP-style: the uplink (and the matching spine->leaf downlink)
// is chosen by a deterministic hash of (src, dst), as real IB subnet
// managers do with static routing.  Wormhole timing like the torus: the
// head pays per-switch latency and queues on busy links; every traversed
// link is reserved until the tail passes.

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"

namespace deep::net {

/// Spine-plane selection for cross-leaf traffic.
enum class FatTreeRouting {
  Ecmp,      // static hash of (src, dst), as IB subnet managers route
  Adaptive,  // least-loaded plane by simulated trunk-busy state; replays
             // stay bit-identical (the choice keys only on link_free_)
};

struct FatTreeParams {
  int leaf_radix = 8;  // nodes per leaf switch
  int uplinks = 8;     // leaf->spine links (== leaf_radix: non-blocking)
  sim::Duration adapter_latency = sim::from_nanos(400);  // NIC each end
  sim::Duration switch_latency = sim::from_nanos(200);   // per switch hop
  double bandwidth_bytes_per_sec = 6.0e9;
  FatTreeRouting routing = FatTreeRouting::Ecmp;
};

class FatTreeFabric final : public Fabric {
 public:
  FatTreeFabric(sim::Engine& engine, std::string name, FatTreeParams params);

  const FatTreeParams& params() const { return params_; }

  Nic& attach(hw::NodeId node) override;
  void send(Message msg, Service svc) override;

  int leaf_of(hw::NodeId node) const;
  /// Switch hops between two attached nodes (1 same leaf, 3 cross leaf).
  int hops(hw::NodeId src, hw::NodeId dst) const;

  /// Cheapest event a fat-tree send can place on another partition: one
  /// adapter plus a single switch hop (the same-leaf case).
  sim::Duration lookahead() const override {
    return params_.adapter_latency + params_.switch_latency;
  }

  /// Leaf-distance pair lookahead: one switch when the two partitions share
  /// a leaf switch, the full three-switch spine crossing otherwise.
  sim::Duration lookahead(std::uint32_t src_part,
                          std::uint32_t dst_part) const override;

  /// Same-leaf adjacency between attached nodes — the locality graph
  /// net::auto_partition() grows blocks from.
  std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const override;

  sim::Duration serialisation(std::int64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             params_.bandwidth_bytes_per_sec);
  }

 protected:
  void on_node_partition(hw::NodeId, std::uint32_t) override {
    partition_dirty_.store(true, std::memory_order_release);
  }

 private:
  // Link identifiers.  Node links are keyed by node id; leaf<->spine links
  // by (leaf, uplink index, direction).
  enum class Dir : std::uint8_t { Up, Down };
  std::int64_t node_tx(hw::NodeId n) const { return n * 4; }
  std::int64_t node_rx(hw::NodeId n) const { return n * 4 + 1; }
  std::int64_t trunk(int leaf, int uplink, Dir dir) const {
    return -(((static_cast<std::int64_t>(leaf) * params_.uplinks + uplink) << 1 |
              static_cast<std::int64_t>(dir)) +
             1);
  }

  /// Rebuilds per-leaf partition ownership and the pair min-switch table
  /// when node partitions changed.
  void ensure_partitions() const;
  void refresh_partitions() const;

  /// The partition owning every node of `leaf`, or kMixedLeaf if the leaf
  /// hosts nodes from several partitions (its trunks are then analytic —
  /// never booked — in partitioned runs).
  static constexpr std::uint32_t kMixedLeaf = 0xFFFFFFFFu;

  FatTreeParams params_;
  std::vector<int> leaves_;  // node -> leaf switch (-1 if not attached)
  // Link booking.  Entries are pre-created at attach so the partitioned
  // send path never rehashes; each entry is only ever touched by the
  // partition owning it (node links by the endpoint's partition, trunks by
  // their leaf's uniform owner).
  std::unordered_map<std::int64_t, sim::TimePoint> link_free_;
  // Partition geometry (lazy, guarded like TorusFabric's).
  mutable std::vector<std::uint32_t> leaf_part_;     // leaf -> owner/kMixedLeaf
  mutable std::vector<char> pair_share_leaf_;        // P*P co-located flags
  mutable std::vector<char> part_present_;           // partition has nodes
  mutable std::atomic<bool> partition_dirty_{false};
  mutable std::mutex partition_mu_;
};

}  // namespace deep::net
