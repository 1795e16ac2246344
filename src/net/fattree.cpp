#include "net/fattree.hpp"

#include <algorithm>

#include "net/pool.hpp"

namespace deep::net {

FatTreeFabric::FatTreeFabric(sim::Engine& engine, std::string name,
                             FatTreeParams params)
    : Fabric(engine, std::move(name)), params_(params) {
  DEEP_EXPECT(params_.leaf_radix >= 1, "FatTreeFabric: leaf_radix must be >= 1");
  DEEP_EXPECT(params_.uplinks >= 1 && params_.uplinks <= params_.leaf_radix,
              "FatTreeFabric: uplinks must be in [1, leaf_radix]");
  DEEP_EXPECT(params_.bandwidth_bytes_per_sec > 0,
              "FatTreeFabric: bandwidth must be positive");
}

Nic& FatTreeFabric::attach(hw::NodeId node) {
  Nic& nic = Fabric::attach(node);
  const int leaf = static_cast<int>(attached_count() - 1) / params_.leaf_radix;
  node_slot(leaves_, node, -1) = leaf;
  // Pre-create every link slot this node can touch: the partitioned send
  // path must never grow the map (a rehash would race across workers).
  link_free_.try_emplace(node_tx(node));
  link_free_.try_emplace(node_rx(node));
  for (int u = 0; u < params_.uplinks; ++u) {
    link_free_.try_emplace(trunk(leaf, u, Dir::Up));
    link_free_.try_emplace(trunk(leaf, u, Dir::Down));
  }
  partition_dirty_.store(true, std::memory_order_release);
  return nic;
}

int FatTreeFabric::leaf_of(hw::NodeId node) const {
  const int leaf = node_entry(leaves_, node, -1);
  DEEP_EXPECT(leaf >= 0, "FatTreeFabric: node not attached");
  return leaf;
}

int FatTreeFabric::hops(hw::NodeId src, hw::NodeId dst) const {
  return leaf_of(src) == leaf_of(dst) ? 1 : 3;
}

std::vector<std::pair<hw::NodeId, hw::NodeId>> FatTreeFabric::topology_edges()
    const {
  // Same-leaf pairs: the only locality a two-level tree has.
  std::vector<std::pair<hw::NodeId, int>> nodes;
  for (const hw::NodeId node : attached_ids())
    nodes.emplace_back(node, leaf_of(node));
  std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      if (nodes[i].second == nodes[j].second)
        edges.emplace_back(nodes[i].first, nodes[j].first);
  return edges;
}

void FatTreeFabric::refresh_partitions() const {
  const int nleaves =
      (static_cast<int>(attached_count()) + params_.leaf_radix - 1) /
      params_.leaf_radix;
  const std::uint32_t nparts = engine_->partitions();
  leaf_part_.assign(static_cast<std::size_t>(std::max(nleaves, 1)), kMixedLeaf);
  part_present_.assign(nparts, 0);
  std::vector<char> leaf_seen(leaf_part_.size(), 0);
  pair_share_leaf_.assign(static_cast<std::size_t>(nparts) * nparts, 0);
  // Per-leaf member partitions (leaves are small: leaf_radix nodes).
  std::vector<std::vector<std::uint32_t>> members(leaf_part_.size());
  for (const hw::NodeId node : attached_ids()) {
    const std::uint32_t p = partition_of(node);
    if (p < nparts) part_present_[p] = 1;
    members[static_cast<std::size_t>(leaf_of(node))].push_back(p);
  }
  for (std::size_t leaf = 0; leaf < members.size(); ++leaf) {
    if (members[leaf].empty()) continue;
    leaf_seen[leaf] = 1;
    std::uint32_t owner = members[leaf].front();
    for (const std::uint32_t p : members[leaf]) {
      if (p != owner) owner = kMixedLeaf;
      for (const std::uint32_t q : members[leaf])
        if (p != q && p < nparts && q < nparts)
          pair_share_leaf_[static_cast<std::size_t>(p) * nparts + q] = 1;
    }
    leaf_part_[leaf] = owner;
  }
  partition_dirty_.store(false, std::memory_order_release);
}

void FatTreeFabric::ensure_partitions() const {
  if (!partition_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(partition_mu_);
  if (partition_dirty_.load(std::memory_order_relaxed)) refresh_partitions();
}

sim::Duration FatTreeFabric::lookahead(std::uint32_t src_part,
                                       std::uint32_t dst_part) const {
  if (!partitioned()) return Fabric::lookahead(src_part, dst_part);
  if (src_part == dst_part) return sim::kUnconstrainedLookahead;
  ensure_partitions();
  const std::uint32_t nparts = engine_->partitions();
  if (src_part >= nparts || dst_part >= nparts || !part_present_[src_part] ||
      !part_present_[dst_part])
    return sim::kUnconstrainedLookahead;
  const bool share =
      pair_share_leaf_[static_cast<std::size_t>(src_part) * nparts + dst_part] !=
      0;
  return params_.adapter_latency + params_.switch_latency * (share ? 1 : 3);
}

void FatTreeFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "FatTreeFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "FatTreeFabric::send: negative size");
  if (faulted(msg)) return;
  const sim::Duration wire = serialisation(msg.size_bytes);
  const int src_leaf = leaf_of(msg.src);
  const int dst_leaf = leaf_of(msg.dst);

  if (svc == Service::Control) {
    // Priority virtual channel: latency only.  Analytic, so the base
    // deliver_at handles a cross-partition destination.
    const int switches = src_leaf == dst_leaf ? 1 : 3;
    deliver_at(engine_->now() + params_.adapter_latency * 2 +
                   params_.switch_latency * switches + wire,
               std::move(msg));
    return;
  }

  int switches = 1;
  int plane = 0;
  if (src_leaf != dst_leaf) {
    switches = 3;
    if (params_.routing == FatTreeRouting::Adaptive && !partitioned()) {
      // Least-loaded plane: the spine plane whose up/down trunk pair frees
      // earliest, lowest index on ties.  Reads only the simulated link-busy
      // table, so the choice — and the whole run — replays bit-identically.
      // Partitioned runs fall back to the ECMP hash below: trunk state is
      // owned per-leaf-partition there and must not be read cross-worker.
      sim::TimePoint best{};
      for (int u = 0; u < params_.uplinks; ++u) {
        const sim::TimePoint busy =
            std::max(link_free_.at(trunk(src_leaf, u, Dir::Up)),
                     link_free_.at(trunk(dst_leaf, u, Dir::Down)));
        if (u == 0 || busy < best) {
          best = busy;
          plane = u;
        }
      }
    } else {
      // Static ECMP: a well-mixed hash of (src, dst) picks the uplink /
      // spine plane for this pair (linear hashes degenerate on strided
      // traffic).
      std::uint64_t h = (static_cast<std::uint64_t>(msg.src) << 32) ^
                        static_cast<std::uint64_t>(msg.dst);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      h *= 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 33;
      plane = static_cast<int>(h % static_cast<std::uint64_t>(params_.uplinks));
    }
  }

  if (!partitioned()) {
    // Serial path: the exact historical algorithm.  Path links are
    // wormhole-reserved from head arrival to tail departure.
    std::vector<std::int64_t> links;
    links.push_back(node_tx(msg.src));
    if (src_leaf != dst_leaf) {
      links.push_back(trunk(src_leaf, plane, Dir::Up));
      links.push_back(trunk(dst_leaf, plane, Dir::Down));
    }
    links.push_back(node_rx(msg.dst));

    sim::TimePoint head = engine_->now() + params_.adapter_latency +
                          params_.switch_latency * switches;
    for (const std::int64_t link : links) {
      auto it = link_free_.find(link);
      if (it != link_free_.end()) head = std::max(head, it->second);
    }
    const sim::TimePoint tail = head + wire;
    for (const std::int64_t link : links) link_free_[link] = tail;

    deliver_at(tail + params_.adapter_latency, std::move(msg));
    return;
  }

  // Partitioned: endpoint-segmented.  Node links belong to their endpoint's
  // partition; a trunk belongs to its leaf's partition when the leaf is
  // uniformly owned and is analytic (never read or booked) otherwise.  The
  // source side books its own links, the destination side books its own from
  // a continuation on its partition at the analytic head arrival; see
  // docs/parallel_engine.md for the contention-approximation argument.
  ensure_partitions();
  const std::uint32_t src_part = partition_of(msg.src);
  const std::uint32_t dst_part = partition_of(msg.dst);

  sim::TimePoint head = engine_->now() + params_.adapter_latency +
                        params_.switch_latency * switches;
  head = std::max(head, link_free_.at(node_tx(msg.src)));
  const bool up_owned =
      src_leaf != dst_leaf && leaf_part_[src_leaf] == src_part;
  const std::int64_t up = trunk(src_leaf, plane, Dir::Up);
  if (up_owned) head = std::max(head, link_free_.at(up));
  const bool down_same_side =
      src_leaf != dst_leaf && leaf_part_[dst_leaf] == src_part;

  if (src_part == dst_part) {
    const std::int64_t down = trunk(dst_leaf, plane, Dir::Down);
    if (down_same_side) head = std::max(head, link_free_.at(down));
    head = std::max(head, link_free_.at(node_rx(msg.dst)));
    const sim::TimePoint tail = head + wire;
    link_free_.at(node_tx(msg.src)) = tail;
    if (up_owned) link_free_.at(up) = tail;
    if (down_same_side) link_free_.at(down) = tail;
    link_free_.at(node_rx(msg.dst)) = tail;
    deliver_at(tail + params_.adapter_latency, std::move(msg));
    return;
  }

  // Cross partition: book the source side until its local tail, continue on
  // the destination partition.  `head` >= now + adapter + switches * switch
  // and `switches` is 3 whenever the leaves differ, so the continuation is
  // always at or beyond the pair lookahead bound.
  const sim::TimePoint src_tail = head + wire;
  link_free_.at(node_tx(msg.src)) = src_tail;
  if (up_owned) link_free_.at(up) = src_tail;
  const bool down_owned =
      src_leaf != dst_leaf && leaf_part_[dst_leaf] == dst_part;
  engine_->schedule_on(
      dst_part, head,
      [this, wire, dst_leaf, plane, down_owned,
       m = PooledMessage(std::move(msg))]() mutable {
        Message msg = m.take();
        sim::TimePoint head = engine_->now();
        const std::int64_t down = trunk(dst_leaf, plane, Dir::Down);
        if (down_owned) head = std::max(head, link_free_.at(down));
        head = std::max(head, link_free_.at(node_rx(msg.dst)));
        const sim::TimePoint tail = head + wire;
        if (down_owned) link_free_.at(down) = tail;
        link_free_.at(node_rx(msg.dst)) = tail;
        deliver_at(tail + params_.adapter_latency, std::move(msg));
      });
}

}  // namespace deep::net
