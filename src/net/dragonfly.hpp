#pragma once
// DragonflyFabric: the modern counterfactual to both the torus booster and
// the fat-tree cluster — `groups` fully-connected groups of
// `routers_per_group` routers, every group pair joined by one bidirectional
// global (optical) link, `nodes_per_router` nodes per router.
//
// Routing offers the three classic dragonfly policies:
//   * Minimal  — the direct l-g-l path (at most one local hop to the global
//     link's host router, the global hop, one local hop to the destination
//     router);
//   * Valiant  — via a deterministic intermediate group (two global hops),
//     spreading adversarial traffic over the global channels;
//   * Adaptive — UGAL-style: per message, take the Valiant detour when the
//     minimal path's global link is busier than the detour's two global
//     links by more than `adaptive_bias`.  The decision keys ONLY on the
//     simulated link-busy table (link_free_), never on host state or RNG,
//     so replays are bit-identical at any worker count.
//
// Faults compose like the torus: router-level links are named by the
// *representative node* (lowest attached id) of each endpoint router, so
// chaos FaultPlans kill global links with plain set_link_up(a, b) calls.
// When a route crosses a dead link, send() falls back — in every routing
// mode — to the first alive candidate path in a deterministic scan order
// (minimal, then Valiant per intermediate group, then a same-group router
// detour); a message only drops when no candidate survives.  This is the
// path-diversity story the torus cannot tell: a killed global link reroutes
// instead of dropping.
//
// Wormhole timing follows the fat-tree: the head pays per-router latency
// (plus the global cable latency per global hop) and queues on busy links;
// every traversed link is reserved until the tail passes.  Partitioned runs
// use endpoint-segmented booking: node links belong to their endpoint's
// partition, router/global links become analytic (latency-only), and
// adaptive selection deterministically degrades to minimal routing — other
// partitions' link state must not be read (docs/parallel_engine.md).

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"

namespace deep::net {

/// Path-selection policy (see file comment).
enum class DragonflyRouting {
  Minimal,
  Valiant,
  Adaptive,
};

struct DragonflyParams {
  int groups = 4;             // g: groups, all-to-all global links
  int routers_per_group = 4;  // a: routers per group, all-to-all local links
  int nodes_per_router = 2;   // p: terminal nodes per router
  sim::Duration adapter_latency = sim::from_nanos(400);  // NIC each end
  sim::Duration router_latency = sim::from_nanos(150);   // per router visited
  sim::Duration global_latency = sim::from_nanos(500);   // optical cable
  double local_bandwidth_bytes_per_sec = 6.0e9;
  double global_bandwidth_bytes_per_sec = 4.5e9;
  DragonflyRouting routing = DragonflyRouting::Minimal;
  /// UGAL hysteresis: the Valiant detour is taken only when it undercuts the
  /// minimal path's estimated queueing by more than this.
  sim::Duration adaptive_bias = sim::from_nanos(200);
};

class DragonflyFabric final : public Fabric {
 public:
  DragonflyFabric(sim::Engine& engine, std::string name,
                  DragonflyParams params);

  const DragonflyParams& params() const { return params_; }

  Nic& attach(hw::NodeId node) override;
  void send(Message msg, Service svc) override;

  int router_of(hw::NodeId node) const;
  int group_of(hw::NodeId node) const { return router_of(node) / params_.routers_per_group; }
  /// Routers visited on the minimal path (1 same router .. 4 cross group).
  int hops(hw::NodeId src, hw::NodeId dst) const;
  /// True when the minimal path src->dst crosses a global link.
  bool crosses_global(hw::NodeId src, hw::NodeId dst) const {
    return group_of(src) != group_of(dst);
  }

  /// The node naming router `router`'s links for set_link_up (lowest
  /// attached id on that router).  Chaos plans kill the global link between
  /// groups via set_link_up(representative(h1), representative(h2), false).
  hw::NodeId representative(int router) const;
  /// Router index (within `group`) hosting the global link to `other`.
  int global_host(int group, int other) const;
  /// Valiant detours taken so far (all lanes) — fault fallbacks included.
  std::int64_t valiant_detours() const;

  /// Cheapest event a dragonfly send can place on another partition: one
  /// adapter plus a single router traversal (the same-router case).
  sim::Duration lookahead() const override {
    return params_.adapter_latency + params_.router_latency;
  }

  /// Router-distance pair lookahead: adapter plus the minimal-path router
  /// count between the two partitions' closest routers.  The minimal count
  /// lower-bounds every candidate path (Valiant only adds hops), so the
  /// bound holds whatever routing policy is active.
  sim::Duration lookahead(std::uint32_t src_part,
                          std::uint32_t dst_part) const override;

  /// Same-router pairs, an intra-group router chain and the global-link
  /// host adjacency — the locality graph net::auto_partition() grows
  /// blocks from (groups are the natural blocks; global links the cut).
  std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const override;

  sim::Duration serialisation(std::int64_t bytes, bool global) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             (global ? params_.global_bandwidth_bytes_per_sec
                                     : params_.local_bandwidth_bytes_per_sec));
  }

 protected:
  /// True when any candidate path (minimal, Valiant, same-group detour)
  /// survives the live link-state table; send() then picks that same path.
  bool route_up(hw::NodeId src, hw::NodeId dst) const override;

  void on_node_partition(hw::NodeId, std::uint32_t) override {
    partition_dirty_.store(true, std::memory_order_release);
  }

 private:
  /// One candidate route: the router-level hops between src's and dst's
  /// routers (node links are implicit).  Valiant worst case is five hops:
  /// local, global, local, global, local.
  struct Path {
    struct Hop {
      int from = 0;  // router
      int to = 0;    // router
      bool global = false;
    };
    std::array<Hop, 5> hops{};
    int nhops = 0;
    int globals = 0;
    bool valiant = false;
    int routers() const { return nhops + 1; }
    void add(int from, int to, bool global) {
      hops[static_cast<std::size_t>(nhops++)] = {from, to, global};
      if (global) ++globals;
    }
  };

  std::int64_t node_tx(hw::NodeId n) const { return n * 4; }
  std::int64_t node_rx(hw::NodeId n) const { return n * 4 + 1; }
  /// Directed router-level link ids (negative, disjoint from node links).
  std::int64_t local_link(int r_from, int r_to) const {
    return -(static_cast<std::int64_t>(r_from) * total_routers_ + r_to + 1);
  }
  std::int64_t global_link(int g_from, int g_to) const {
    return -(static_cast<std::int64_t>(total_routers_) * total_routers_ +
             static_cast<std::int64_t>(g_from) * params_.groups + g_to + 1);
  }
  std::int64_t hop_link(const Path::Hop& hop) const {
    return hop.global ? global_link(hop.from / params_.routers_per_group,
                                    hop.to / params_.routers_per_group)
                      : local_link(hop.from, hop.to);
  }

  Path minimal_path(int src_router, int dst_router) const;
  /// The l-g-l-g-l detour via intermediate group `via`.
  Path valiant_path(int src_router, int dst_router, int via) const;
  /// Deterministic default intermediate group for (src, dst) groups.
  int valiant_group(int src_group, int dst_group) const;
  /// Every hop's link admin-up (named by endpoint-router representatives).
  bool path_alive(const Path& path) const;
  /// Canonical alive-candidate scan; false only when every candidate is cut.
  bool alive_path(int src_router, int dst_router, Path& out) const;
  /// The path send() takes: routing policy, then fault fallback.
  Path choose_path(int src_router, int dst_router) const;
  /// Estimated queueing delay of a link right now (0 when idle).
  sim::Duration queue_estimate(std::int64_t link) const;

  void ensure_partitions() const;
  void refresh_partitions() const;
  int router_pair_hops(int r1, int r2) const;

  DragonflyParams params_;
  int total_routers_ = 0;
  int capacity_ = 0;
  std::vector<int> routers_;            // node -> router (-1: not attached)
  std::vector<hw::NodeId> router_rep_;  // router -> lowest node
  // Link booking: every router-level slot is created in the constructor and
  // node slots at attach, so the partitioned send path never rehashes.
  std::unordered_map<std::int64_t, sim::TimePoint> link_free_;
  // Per-lane Valiant counters (summed on read; lanes never share a window).
  mutable std::vector<std::int64_t> valiant_lane_;
  // Partition geometry (lazy, guarded like TorusFabric's).
  mutable std::vector<char> part_present_;
  mutable std::vector<std::int64_t> pair_hops_;  // P*P min routers, -1 = none
  mutable std::atomic<bool> partition_dirty_{false};
  mutable std::mutex partition_mu_;
  obs::Counter m_global_hops_;  // global-link traversals
  obs::Counter m_valiant_;      // Valiant detours taken
};

}  // namespace deep::net
