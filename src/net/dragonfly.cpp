#include "net/dragonfly.hpp"

#include <algorithm>

#include "net/pool.hpp"

namespace deep::net {

DragonflyFabric::DragonflyFabric(sim::Engine& engine, std::string name,
                                 DragonflyParams params)
    : Fabric(engine, std::move(name)),
      params_(params),
      valiant_lane_(util::kMaxLanes, 0) {
  DEEP_EXPECT(params_.groups >= 2, "DragonflyFabric: need at least 2 groups");
  DEEP_EXPECT(params_.routers_per_group >= 1,
              "DragonflyFabric: routers_per_group must be >= 1");
  DEEP_EXPECT(params_.nodes_per_router >= 1,
              "DragonflyFabric: nodes_per_router must be >= 1");
  DEEP_EXPECT(params_.local_bandwidth_bytes_per_sec > 0 &&
                  params_.global_bandwidth_bytes_per_sec > 0,
              "DragonflyFabric: bandwidth must be positive");
  total_routers_ = params_.groups * params_.routers_per_group;
  capacity_ = total_routers_ * params_.nodes_per_router;
  router_rep_.assign(static_cast<std::size_t>(total_routers_),
                     hw::kInvalidNode);
  // Pre-create every router-level link slot: the send path must never grow
  // the map (a rehash would race across partitioned workers).
  for (int g = 0; g < params_.groups; ++g) {
    const int base = g * params_.routers_per_group;
    for (int r1 = 0; r1 < params_.routers_per_group; ++r1)
      for (int r2 = 0; r2 < params_.routers_per_group; ++r2)
        if (r1 != r2) link_free_.try_emplace(local_link(base + r1, base + r2));
  }
  for (int g1 = 0; g1 < params_.groups; ++g1)
    for (int g2 = 0; g2 < params_.groups; ++g2)
      if (g1 != g2) link_free_.try_emplace(global_link(g1, g2));
  if (auto* metrics = engine_->metrics()) {
    m_global_hops_ = metrics->counter("net." + name_ + ".global_hops");
    m_valiant_ = metrics->counter("net." + name_ + ".valiant_detours");
  }
}

Nic& DragonflyFabric::attach(hw::NodeId node) {
  DEEP_EXPECT(attached_count() < static_cast<std::size_t>(capacity_),
              "DragonflyFabric: fabric is full (groups * routers_per_group * "
              "nodes_per_router nodes)");
  Nic& nic = Fabric::attach(node);
  const int router =
      static_cast<int>(attached_count() - 1) / params_.nodes_per_router;
  node_slot(routers_, node, -1) = router;
  auto& rep = router_rep_[static_cast<std::size_t>(router)];
  if (rep == hw::kInvalidNode || node < rep) rep = node;
  link_free_.try_emplace(node_tx(node));
  link_free_.try_emplace(node_rx(node));
  partition_dirty_.store(true, std::memory_order_release);
  return nic;
}

int DragonflyFabric::router_of(hw::NodeId node) const {
  const int router = node_entry(routers_, node, -1);
  DEEP_EXPECT(router >= 0, "DragonflyFabric: node not attached");
  return router;
}

hw::NodeId DragonflyFabric::representative(int router) const {
  DEEP_EXPECT(router >= 0 && router < total_routers_,
              "DragonflyFabric: router index out of range");
  const hw::NodeId rep = router_rep_[static_cast<std::size_t>(router)];
  DEEP_EXPECT(rep != hw::kInvalidNode,
              "DragonflyFabric: router has no attached nodes");
  return rep;
}

int DragonflyFabric::global_host(int group, int other) const {
  DEEP_EXPECT(group != other && group >= 0 && group < params_.groups &&
                  other >= 0 && other < params_.groups,
              "DragonflyFabric: bad group pair");
  // Canonical consecutive assignment: group g's global links (one per other
  // group, in group order) round-robin over its routers.
  const int k = other < group ? other : other - 1;
  return k % params_.routers_per_group;
}

std::int64_t DragonflyFabric::valiant_detours() const {
  std::int64_t total = 0;
  for (const std::int64_t v : valiant_lane_) total += v;
  return total;
}

// ---------------------------------------------------------------------------
// Path construction and selection
// ---------------------------------------------------------------------------

DragonflyFabric::Path DragonflyFabric::minimal_path(int src_router,
                                                    int dst_router) const {
  Path path;
  if (src_router == dst_router) return path;
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  if (gs == gd) {
    path.add(src_router, dst_router, false);
    return path;
  }
  const int hs = gs * a + global_host(gs, gd);
  const int hd = gd * a + global_host(gd, gs);
  if (src_router != hs) path.add(src_router, hs, false);
  path.add(hs, hd, true);
  if (hd != dst_router) path.add(hd, dst_router, false);
  return path;
}

DragonflyFabric::Path DragonflyFabric::valiant_path(int src_router,
                                                    int dst_router,
                                                    int via) const {
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  DEEP_ASSERT(via != gs && via != gd && gs != gd,
              "DragonflyFabric: bad Valiant intermediate group");
  Path path;
  path.valiant = true;
  // Leg 1: source group to the intermediate group's entry router.
  const int hs = gs * a + global_host(gs, via);
  const int entry = via * a + global_host(via, gs);
  if (src_router != hs) path.add(src_router, hs, false);
  path.add(hs, entry, true);
  // Leg 2: intermediate group to the destination.
  const int exit = via * a + global_host(via, gd);
  const int hd = gd * a + global_host(gd, via);
  if (entry != exit) path.add(entry, exit, false);
  path.add(exit, hd, true);
  if (hd != dst_router) path.add(hd, dst_router, false);
  return path;
}

int DragonflyFabric::valiant_group(int src_group, int dst_group) const {
  // Deterministic rotation: a pure function of the group pair, so the same
  // (src, dst) always detours through the same group.
  for (int i = 0; i < params_.groups; ++i) {
    const int via = (src_group + dst_group + i) % params_.groups;
    if (via != src_group && via != dst_group) return via;
  }
  DEEP_ASSERT(false, "DragonflyFabric: no intermediate group (groups < 3)");
  return -1;
}

bool DragonflyFabric::path_alive(const Path& path) const {
  for (int i = 0; i < path.nhops; ++i) {
    const Path::Hop& hop = path.hops[static_cast<std::size_t>(i)];
    if (!link_up(representative(hop.from), representative(hop.to)))
      return false;
  }
  return true;
}

bool DragonflyFabric::alive_path(int src_router, int dst_router,
                                 Path& out) const {
  Path minimal = minimal_path(src_router, dst_router);
  if (path_alive(minimal)) {
    out = minimal;
    return true;
  }
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  if (gs != gd) {
    // Valiant candidates in the deterministic rotation order.
    for (int i = 0; i < params_.groups; ++i) {
      const int via = (gs + gd + i) % params_.groups;
      if (via == gs || via == gd) continue;
      Path candidate = valiant_path(src_router, dst_router, via);
      if (path_alive(candidate)) {
        out = candidate;
        return true;
      }
    }
    return false;
  }
  // Same group: detour over a third router (local links are all-to-all).
  for (int i = 0; i < a; ++i) {
    const int via = gs * a + (src_router + dst_router + i) % a;
    if (via == src_router || via == dst_router) continue;
    Path candidate;
    candidate.valiant = true;
    candidate.add(src_router, via, false);
    candidate.add(via, dst_router, false);
    if (path_alive(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

bool DragonflyFabric::route_up(hw::NodeId src, hw::NodeId dst) const {
  Path unused;
  return alive_path(router_of(src), router_of(dst), unused);
}

sim::Duration DragonflyFabric::queue_estimate(std::int64_t link) const {
  const auto it = link_free_.find(link);
  if (it == link_free_.end()) return sim::Duration{0};
  const sim::TimePoint now = engine_->now();
  return it->second > now ? it->second - now : sim::Duration{0};
}

DragonflyFabric::Path DragonflyFabric::choose_path(int src_router,
                                                   int dst_router) const {
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  Path path = minimal_path(src_router, dst_router);
  if (gs != gd && !partitioned()) {
    if (params_.routing == DragonflyRouting::Valiant) {
      path = valiant_path(src_router, dst_router, valiant_group(gs, gd));
    } else if (params_.routing == DragonflyRouting::Adaptive) {
      // UGAL: estimated queueing on the minimal global link vs the best
      // detour's two global links plus the extra cable.  Every input is
      // simulated link state, so the choice replays bit-identically.
      const sim::Duration direct = queue_estimate(global_link(gs, gd));
      sim::Duration best_cost = sim::kUnconstrainedLookahead;
      int best_via = -1;
      for (int via = 0; via < params_.groups; ++via) {
        if (via == gs || via == gd) continue;
        const sim::Duration cost = queue_estimate(global_link(gs, via)) +
                                   queue_estimate(global_link(via, gd)) +
                                   params_.global_latency;
        if (cost < best_cost) {
          best_cost = cost;
          best_via = via;
        }
      }
      if (best_via >= 0 && best_cost + params_.adaptive_bias < direct)
        path = valiant_path(src_router, dst_router, best_via);
    }
  }
  // Fault fallback, in every routing mode: when the chosen path crosses a
  // dead link, take the canonical alive candidate instead.  faulted() has
  // already established one exists.
  if (links_down() > 0 && !path_alive(path)) {
    const bool found = alive_path(src_router, dst_router, path);
    DEEP_ASSERT(found, "DragonflyFabric: send passed faulted() with no path");
  }
  return path;
}

// ---------------------------------------------------------------------------
// Topology introspection and partition geometry
// ---------------------------------------------------------------------------

int DragonflyFabric::hops(hw::NodeId src, hw::NodeId dst) const {
  return minimal_path(router_of(src), router_of(dst)).routers();
}

std::vector<std::pair<hw::NodeId, hw::NodeId>> DragonflyFabric::topology_edges()
    const {
  std::vector<std::pair<hw::NodeId, int>> nodes;
  for (const hw::NodeId node : attached_ids())
    nodes.emplace_back(node, router_of(node));
  std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
  // Same-router pairs: the tightest locality.
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      if (nodes[i].second == nodes[j].second)
        edges.emplace_back(nodes[i].first, nodes[j].first);
  // Intra-group router chain + global-link host adjacency, over the
  // representative nodes, so the graph is connected and the global links
  // form the natural cut for auto_partition.
  const int a = params_.routers_per_group;
  for (int g = 0; g < params_.groups; ++g) {
    hw::NodeId prev = hw::kInvalidNode;
    for (int r = 0; r < a; ++r) {
      const hw::NodeId rep = router_rep_[static_cast<std::size_t>(g * a + r)];
      if (rep == hw::kInvalidNode) continue;
      if (prev != hw::kInvalidNode) edges.emplace_back(prev, rep);
      prev = rep;
    }
  }
  for (int g1 = 0; g1 < params_.groups; ++g1)
    for (int g2 = g1 + 1; g2 < params_.groups; ++g2) {
      const hw::NodeId rep1 =
          router_rep_[static_cast<std::size_t>(g1 * a + global_host(g1, g2))];
      const hw::NodeId rep2 =
          router_rep_[static_cast<std::size_t>(g2 * a + global_host(g2, g1))];
      if (rep1 != hw::kInvalidNode && rep2 != hw::kInvalidNode)
        edges.emplace_back(rep1, rep2);
    }
  return edges;
}

int DragonflyFabric::router_pair_hops(int r1, int r2) const {
  return minimal_path(r1, r2).routers();
}

void DragonflyFabric::refresh_partitions() const {
  const std::uint32_t nparts = engine_->partitions();
  part_present_.assign(nparts, 0);
  pair_hops_.assign(static_cast<std::size_t>(nparts) * nparts, -1);
  // Routers present per partition (small: total_routers_ entries).
  std::vector<std::vector<std::uint32_t>> router_parts(
      static_cast<std::size_t>(total_routers_));
  for (const hw::NodeId node : attached_ids()) {
    const std::uint32_t p = partition_of(node);
    if (p < nparts) part_present_[p] = 1;
    auto& list = router_parts[static_cast<std::size_t>(router_of(node))];
    if (std::find(list.begin(), list.end(), p) == list.end()) list.push_back(p);
  }
  for (int r1 = 0; r1 < total_routers_; ++r1) {
    if (router_parts[static_cast<std::size_t>(r1)].empty()) continue;
    for (int r2 = 0; r2 < total_routers_; ++r2) {
      if (router_parts[static_cast<std::size_t>(r2)].empty()) continue;
      const std::int64_t d = router_pair_hops(r1, r2);
      for (const std::uint32_t p : router_parts[static_cast<std::size_t>(r1)])
        for (const std::uint32_t q :
             router_parts[static_cast<std::size_t>(r2)]) {
          if (p >= nparts || q >= nparts) continue;
          std::int64_t& cell =
              pair_hops_[static_cast<std::size_t>(p) * nparts + q];
          if (cell < 0 || d < cell) cell = d;
        }
    }
  }
  partition_dirty_.store(false, std::memory_order_release);
}

void DragonflyFabric::ensure_partitions() const {
  if (!partition_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(partition_mu_);
  if (partition_dirty_.load(std::memory_order_relaxed)) refresh_partitions();
}

sim::Duration DragonflyFabric::lookahead(std::uint32_t src_part,
                                         std::uint32_t dst_part) const {
  if (!partitioned()) return Fabric::lookahead(src_part, dst_part);
  if (src_part == dst_part) return sim::kUnconstrainedLookahead;
  ensure_partitions();
  const std::uint32_t nparts = engine_->partitions();
  if (src_part >= nparts || dst_part >= nparts || !part_present_[src_part] ||
      !part_present_[dst_part])
    return sim::kUnconstrainedLookahead;
  const std::int64_t d =
      pair_hops_[static_cast<std::size_t>(src_part) * nparts + dst_part];
  if (d < 0) return sim::kUnconstrainedLookahead;
  return params_.adapter_latency + params_.router_latency * d;
}

// ---------------------------------------------------------------------------
// Send
// ---------------------------------------------------------------------------

void DragonflyFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "DragonflyFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "DragonflyFabric::send: negative size");
  if (faulted(msg)) return;
  const int src_router = router_of(msg.src);
  const int dst_router = router_of(msg.dst);
  const Path path = choose_path(src_router, dst_router);
  if (path.valiant) {
    valiant_lane_[util::exec_lane()] += 1;
    m_valiant_.add(1);
  }
  m_global_hops_.add(path.globals);
  const sim::Duration wire = serialisation(msg.size_bytes, path.globals > 0);
  const sim::Duration latency = params_.adapter_latency +
                                params_.router_latency * path.routers() +
                                params_.global_latency * path.globals;

  if (svc == Service::Control) {
    // Priority virtual channel: latency only, never queued behind bulk.
    deliver_at(engine_->now() + latency + params_.adapter_latency + wire,
               std::move(msg));
    return;
  }

  if (!partitioned()) {
    // Serial path: wormhole-reserve every traversed link head to tail.
    sim::TimePoint head = engine_->now() + latency;
    head = std::max(head, link_free_.at(node_tx(msg.src)));
    for (int i = 0; i < path.nhops; ++i)
      head = std::max(
          head,
          link_free_.at(hop_link(path.hops[static_cast<std::size_t>(i)])));
    head = std::max(head, link_free_.at(node_rx(msg.dst)));
    const sim::TimePoint tail = head + wire;
    link_free_.at(node_tx(msg.src)) = tail;
    for (int i = 0; i < path.nhops; ++i)
      link_free_.at(hop_link(path.hops[static_cast<std::size_t>(i)])) = tail;
    link_free_.at(node_rx(msg.dst)) = tail;
    deliver_at(tail + params_.adapter_latency, std::move(msg));
    return;
  }

  // Partitioned: endpoint-segmented booking.  Node links belong to their
  // endpoint's partition; router and global links are analytic (choose_path
  // already degraded to minimal routing, which reads no shared link state).
  ensure_partitions();
  const std::uint32_t src_part = partition_of(msg.src);
  const std::uint32_t dst_part = partition_of(msg.dst);
  sim::TimePoint head = engine_->now() + latency;
  head = std::max(head, link_free_.at(node_tx(msg.src)));

  if (src_part == dst_part) {
    head = std::max(head, link_free_.at(node_rx(msg.dst)));
    const sim::TimePoint tail = head + wire;
    link_free_.at(node_tx(msg.src)) = tail;
    link_free_.at(node_rx(msg.dst)) = tail;
    deliver_at(tail + params_.adapter_latency, std::move(msg));
    return;
  }

  // Cross partition: book the source side until its local tail, continue on
  // the destination partition.  `head` >= now + adapter + router_latency *
  // minimal routers, which is at or beyond the pair lookahead bound.
  const sim::TimePoint src_tail = head + wire;
  link_free_.at(node_tx(msg.src)) = src_tail;
  engine_->schedule_on(
      dst_part, head, [this, wire, m = PooledMessage(std::move(msg))]() mutable {
        Message msg = m.take();
        sim::TimePoint head = engine_->now();
        head = std::max(head, link_free_.at(node_rx(msg.dst)));
        const sim::TimePoint tail = head + wire;
        link_free_.at(node_rx(msg.dst)) = tail;
        deliver_at(tail + params_.adapter_latency, std::move(msg));
      });
}

}  // namespace deep::net
