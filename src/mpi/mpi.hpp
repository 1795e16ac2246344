#pragma once
// Mpi: the per-rank Global-MPI programming interface.
//
// One Mpi object is handed to every rank program (the simulator's stand-in
// for linking against ParaStation MPI).  It provides:
//   * blocking and non-blocking point-to-point (eager/rendezvous underneath),
//   * the usual collectives over intra-communicators,
//   * communicator management: split, dup,
//   * the DEEP offloading primitives: comm_spawn (collective creation of a
//     booster-side MPI_COMM_WORLD plus an inter-communicator, slides 26-27)
//     and intercommunicator merge,
//   * convenience compute hooks that burn roofline time on the local node.
//
// All ranks of a communicator must issue collectives (including split, dup
// and comm_spawn, with identical arguments) in the same order.

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/node.hpp"
#include "mpi/comm.hpp"
#include "mpi/endpoint.hpp"
#include "mpi/system.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace deep::mpi {

class Mpi {
 public:
  Mpi(MpiSystem& system, sim::Context& ctx, hw::Node& node, Endpoint& endpoint,
      Comm world, std::optional<Intercomm> parent);

  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  /// Detaches the endpoint: after the rank's handle dies (normal exit or
  /// error bail-out), late arrivals must not touch its buffers or process.
  ~Mpi();

  // -- environment ---------------------------------------------------------
  const Comm& world() const { return world_; }
  /// The inter-communicator to the processes that spawned this world
  /// (empty for the initial world) — MPI_Comm_get_parent.
  const std::optional<Intercomm>& parent() const { return parent_; }
  Rank rank() const { return world_.rank(); }
  int size() const { return world_.size(); }
  hw::Node& node() const { return *node_; }
  sim::Context& ctx() const { return *ctx_; }
  MpiSystem& system() const { return *system_; }

  /// Burns roofline compute time on this rank's node using `cores` cores.
  void compute(const hw::KernelCost& cost, int cores = 1) {
    node_->compute(*ctx_, cost, cores);
  }

  // -- point-to-point (byte level) ------------------------------------------
  RequestPtr isend_bytes(const Comm& comm, Rank dst, Tag tag,
                         std::span<const std::byte> data);
  RequestPtr irecv_bytes(const Comm& comm, Rank src, Tag tag,
                         std::span<std::byte> buffer);
  RequestPtr isend_bytes(const Intercomm& inter, Rank dst, Tag tag,
                         std::span<const std::byte> data);
  RequestPtr irecv_bytes(const Intercomm& inter, Rank src, Tag tag,
                         std::span<std::byte> buffer);

  void wait(const RequestPtr& request);
  bool test(const RequestPtr& request) const;
  void wait_all(std::span<const RequestPtr> requests);
  /// Blocks until at least one request completes; returns its index.
  std::size_t wait_any(std::span<const RequestPtr> requests);

  /// Non-blocking probe of buffered (unexpected) messages — MPI_Iprobe.
  /// Does not consume the message.
  std::optional<Status> iprobe(const Comm& comm, Rank src, Tag tag);
  /// Blocking probe: waits until a matching message is buffered.
  Status probe(const Comm& comm, Rank src, Tag tag);

  void send_bytes(const Comm& comm, Rank dst, Tag tag,
                  std::span<const std::byte> data) {
    wait(isend_bytes(comm, dst, tag, data));
  }
  Status recv_bytes(const Comm& comm, Rank src, Tag tag,
                    std::span<std::byte> buffer) {
    auto r = irecv_bytes(comm, src, tag, buffer);
    wait(r);
    return r->status;
  }
  void send_bytes(const Intercomm& inter, Rank dst, Tag tag,
                  std::span<const std::byte> data) {
    wait(isend_bytes(inter, dst, tag, data));
  }
  Status recv_bytes(const Intercomm& inter, Rank src, Tag tag,
                    std::span<std::byte> buffer) {
    auto r = irecv_bytes(inter, src, tag, buffer);
    wait(r);
    return r->status;
  }

  /// Simultaneous send+recv (deadlock-free building block).
  Status sendrecv_bytes(const Comm& comm, Rank dst, Tag stag,
                        std::span<const std::byte> sdata, Rank src, Tag rtag,
                        std::span<std::byte> rbuf);

  // -- point-to-point (typed) -----------------------------------------------
  template <typename T, typename C>
  void send(const C& comm, Rank dst, Tag tag, std::span<const T> data) {
    send_bytes(comm, dst, tag, std::as_bytes(data));
  }
  template <typename T, typename C>
  Status recv(const C& comm, Rank src, Tag tag, std::span<T> buffer) {
    return recv_bytes(comm, src, tag, std::as_writable_bytes(buffer));
  }
  template <typename T, typename C>
  RequestPtr isend(const C& comm, Rank dst, Tag tag, std::span<const T> data) {
    return isend_bytes(comm, dst, tag, std::as_bytes(data));
  }
  template <typename T, typename C>
  RequestPtr irecv(const C& comm, Rank src, Tag tag, std::span<T> buffer) {
    return irecv_bytes(comm, src, tag, std::as_writable_bytes(buffer));
  }

  // -- collectives ----------------------------------------------------------
  /// Algorithm selection for the collectives that implement more than one.
  /// Auto picks by message size and communicator shape (the usual
  /// latency/bandwidth trade-off of MPI libraries).
  enum class CollAlgo {
    Auto,
    BinomialTree,       // bcast: latency-optimal, log(n) rounds of full size
    ScatterAllgather,   // bcast: bandwidth-optimal for large payloads
    ReduceBcast,        // allreduce: works for any communicator size
    RecursiveDoubling,  // allreduce: log(n) exchange rounds (power-of-2 only)
    Rabenseifner,       // allreduce: reduce-scatter + allgather, bandwidth-
                        // optimal for long vectors (power-of-2 only)
  };

  void barrier(const Comm& comm);

  template <typename T>
  void bcast(const Comm& comm, Rank root, std::span<T> data,
             CollAlgo algo = CollAlgo::Auto);
  template <typename T>
  void reduce(const Comm& comm, Rank root, Op op, std::span<const T> in,
              std::span<T> out);
  template <typename T>
  void allreduce(const Comm& comm, Op op, std::span<const T> in,
                 std::span<T> out, CollAlgo algo = CollAlgo::Auto);
  template <typename T>
  void gather(const Comm& comm, Rank root, std::span<const T> send,
              std::span<T> recv);
  template <typename T>
  void scatter(const Comm& comm, Rank root, std::span<const T> send,
               std::span<T> recv);
  /// Variable-size gather: rank r contributes `send` (its size may differ
  /// per rank); at the root, block r lands at recv[displs[r]..+counts[r]].
  /// counts/displs are significant at the root only (in elements).
  template <typename T>
  void gatherv(const Comm& comm, Rank root, std::span<const T> send,
               std::span<T> recv, std::span<const int> counts,
               std::span<const int> displs);
  /// Variable-size scatter (the inverse of gatherv).
  template <typename T>
  void scatterv(const Comm& comm, Rank root, std::span<const T> send,
                std::span<const int> counts, std::span<const int> displs,
                std::span<T> recv);
  template <typename T>
  void allgather(const Comm& comm, std::span<const T> send, std::span<T> recv);
  template <typename T>
  void alltoall(const Comm& comm, std::span<const T> send, std::span<T> recv);
  /// Variable-size all-to-all: rank r sends send[sdispls[d]..+scounts[d]] to
  /// rank d and receives into recv[rdispls[s]..+rcounts[s]] (in elements).
  template <typename T>
  void alltoallv(const Comm& comm, std::span<const T> send,
                 std::span<const int> scounts, std::span<const int> sdispls,
                 std::span<T> recv, std::span<const int> rcounts,
                 std::span<const int> rdispls);
  template <typename T>
  void scan(const Comm& comm, Op op, std::span<const T> in, std::span<T> out);

  /// Barrier across both sides of an inter-communicator.
  void barrier(const Intercomm& inter, const Comm& local);

  // -- communicator management ----------------------------------------------
  /// Collective: partitions `comm` by color (ranks ordered by key, then old
  /// rank).  color = kUndefinedColor yields a null Comm for that rank.
  static constexpr int kUndefinedColor = -1;
  Comm split(const Comm& comm, int color, int key);

  /// Collective: duplicates the communicator with fresh contexts.
  Comm dup(const Comm& comm);

  // -- one-sided communication (the EXTOLL RMA engine, slide 16) -------------
  /// A window: a region of local memory every member of a communicator
  /// exposes for one-sided Put/Get by the other members.
  class Window {
   public:
    Window() = default;
    bool valid() const { return id_ != 0; }
    std::uint64_t id() const { return id_; }
    const Comm& comm() const { return comm_; }

   private:
    friend class Mpi;
    std::uint64_t id_ = 0;
    Comm comm_;
  };

  /// Collective: exposes `local` on every member and returns the window.
  Window win_create(const Comm& comm, std::span<std::byte> local);
  /// Collective: synchronises and closes the window.
  void win_free(Window& window);

  /// One-sided write into `target`'s window at byte `offset`.  Locally
  /// complete on return; remotely complete after the next fence.
  void put(const Window& window, Rank target, std::int64_t offset,
           std::span<const std::byte> data);
  /// One-sided read of target's window; blocks until the data arrived.
  void get(const Window& window, Rank target, std::int64_t offset,
           std::span<std::byte> dest);
  /// Non-blocking get.
  RequestPtr iget(const Window& window, Rank target, std::int64_t offset,
                  std::span<std::byte> dest);

  /// Collective: completes all outstanding one-sided operations on the
  /// window (everything issued before the fence is visible after it) —
  /// MPI_Win_fence semantics.
  void fence(const Window& window);

  /// One-sided element-wise reduction into the target's window
  /// (MPI_Accumulate).  Supported element types: double, std::int64_t.
  template <typename T>
  void accumulate(const Window& window, Rank target, std::int64_t elem_offset,
                  Op op, std::span<const T> data) {
    static_assert(std::is_same_v<T, double> || std::is_same_v<T, std::int64_t>,
                  "accumulate: only double and int64 are supported");
    DEEP_EXPECT(window.valid(), "accumulate: null window");
    ctx_->delay(system_->params().send_overhead);
    endpoint_->start_accumulate(
        window.comm().addr_of(target), window.id(),
        elem_offset * static_cast<std::int64_t>(sizeof(T)),
        std::as_bytes(data), op, std::is_same_v<T, double> ? 0 : 1);
  }

  /// Typed helpers.
  template <typename T>
  void put(const Window& w, Rank target, std::int64_t elem_offset,
           std::span<const T> data) {
    put(w, target, elem_offset * static_cast<std::int64_t>(sizeof(T)),
        std::as_bytes(data));
  }
  template <typename T>
  void get(const Window& w, Rank target, std::int64_t elem_offset,
           std::span<T> dest) {
    get(w, target, elem_offset * static_cast<std::int64_t>(sizeof(T)),
        std::as_writable_bytes(dest));
  }

  // -- DEEP offload primitives ------------------------------------------------
  /// Collective over `comm`: spawns `maxprocs` processes of registered
  /// program `command` (placed by the resource manager according to `info`)
  /// and returns the inter-communicator to the children.  Unlike MPI, the
  /// arguments are significant at ALL ranks and must be identical.
  /// Throws util::ResourceError if the processes cannot be started.
  Intercomm comm_spawn(const Comm& comm, Rank root, const std::string& command,
                       const std::vector<std::string>& args, int maxprocs,
                       const Info& info = {});

  /// Collective over both sides: merges an inter-communicator into a flat
  /// intra-communicator.  The side created with low_side=true (the parents,
  /// for spawn) gets the low ranks.
  Comm merge(const Intercomm& inter);

 private:
  template <typename T>
  static void combine(Op op, std::span<T> acc, std::span<const T> in) {
    DEEP_ASSERT(acc.size() == in.size(), "combine: size mismatch");
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] = apply_op(op, acc[i], in[i]);
  }

  /// Per-collective tag block: advances the comm's epoch and returns a tag
  /// base unique to this collective instance (4096 tags wide, enough for the
  /// per-round tags of collectives over up to 4096 ranks).
  Tag coll_tags(const Comm& comm) {
    const auto epoch = comm.state()->coll_epoch++;
    return kCollTagBase - static_cast<Tag>((epoch % 400000) * 4096);
  }

  RequestPtr isend_raw(const EpAddr& dst, ContextId context, Rank src_rank,
                       Tag tag, std::span<const std::byte> data);
  RequestPtr irecv_raw(ContextId context, Rank src, Tag tag,
                       std::span<std::byte> buffer);

  MpiSystem* system_;
  sim::Context* ctx_;
  hw::Node* node_;
  Endpoint* endpoint_;
  // Liveness witness for endpoint_: the destructor must not touch an
  // endpoint that died with its MpiSystem before this rank's fiber unwound.
  std::weak_ptr<Endpoint> endpoint_ref_;
  Comm world_;
  std::optional<Intercomm> parent_;
  // Per-rank blocked-wait latency; feeds the system-wide mpi.wait_ns too.
  obs::Histogram m_wait_ns_;
  /// Books a blocked stretch of wait()/wait_any() into both histograms.
  void record_wait(sim::TimePoint since) const {
    const std::int64_t ns = (ctx_->now() - since).ps / 1000;
    m_wait_ns_.record(ns);
    system_->metrics().wait_ns.record(ns);
  }
};

// ===========================================================================
// Collective implementations (binomial trees, ring, pairwise exchange).
// ===========================================================================

template <typename T>
void Mpi::bcast(const Comm& comm, Rank root, std::span<T> data,
                CollAlgo algo) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "bcast: bad root");
  DEEP_EXPECT(algo == CollAlgo::Auto || algo == CollAlgo::BinomialTree ||
                  algo == CollAlgo::ScatterAllgather,
              "bcast: not a bcast algorithm");
  const int nranks = comm.size();
  if (nranks == 1) return;
  if (algo == CollAlgo::Auto) {
    // Binomial is latency-optimal; scatter+allgather moves each byte at most
    // twice regardless of communicator size, winning for bulk payloads.
    algo = (data.size_bytes() >= 256 * 1024 && nranks >= 4)
               ? CollAlgo::ScatterAllgather
               : CollAlgo::BinomialTree;
  }
  if (algo == CollAlgo::ScatterAllgather) {
    // van de Geijn: scatter the blocks, then ring-allgather them.  When the
    // blocks tile `data` exactly, both phases work in place; only a ragged
    // size needs a padded copy (same message sizes either way).
    const auto n = static_cast<std::size_t>(nranks);
    const std::size_t block = (data.size() + n - 1) / n;
    std::vector<T> mine(block);
    if (block * n == data.size()) {
      scatter<T>(comm, root, data, mine);
      allgather<T>(comm, mine, data);
      return;
    }
    std::vector<T> padded(block * n);
    if (comm.rank() == root)
      std::copy(data.begin(), data.end(), padded.begin());
    scatter<T>(comm, root, padded, mine);
    allgather<T>(comm, mine, padded);
    if (comm.rank() != root)
      std::copy(padded.begin(),
                padded.begin() + static_cast<std::ptrdiff_t>(data.size()),
                data.begin());
    return;
  }
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const Rank vrank = (comm.rank() - root + n) % n;
  auto bytes = std::as_writable_bytes(data);

  // Receive once from the parent in the binomial tree...
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const Rank src = (vrank - mask + root) % n;
      wait(irecv_raw(ctx, src, tag, bytes));
      break;
    }
    mask <<= 1;
  }
  // ...then forward to children below.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && (vrank | mask) != vrank &&
        vrank + mask < n) {
      const Rank dst = (vrank + mask + root) % n;
      wait(isend_raw(comm.addr_of(dst), ctx, comm.rank(), tag, bytes));
    }
    mask >>= 1;
  }
}

template <typename T>
void Mpi::reduce(const Comm& comm, Rank root, Op op, std::span<const T> in,
                 std::span<T> out) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "reduce: bad root");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const Rank vrank = (comm.rank() - root + n) % n;

  std::vector<T> acc(in.begin(), in.end());
  std::vector<T> tmp(in.size());
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const Rank dst = (vrank - mask + root) % n;
      wait(isend_raw(comm.addr_of(dst), ctx, comm.rank(), tag,
                     std::as_bytes(std::span<const T>(acc))));
      break;
    }
    if (vrank + mask < n) {
      const Rank src = (vrank + mask + root) % n;
      wait(irecv_raw(ctx, src, tag, std::as_writable_bytes(std::span<T>(tmp))));
      combine<T>(op, acc, tmp);
    }
    mask <<= 1;
  }
  if (comm.rank() == root) {
    DEEP_EXPECT(out.size() == in.size(), "reduce: output size mismatch");
    std::copy(acc.begin(), acc.end(), out.begin());
  }
}

template <typename T>
void Mpi::allreduce(const Comm& comm, Op op, std::span<const T> in,
                    std::span<T> out, CollAlgo algo) {
  DEEP_EXPECT(out.size() == in.size(), "allreduce: size mismatch");
  DEEP_EXPECT(algo == CollAlgo::Auto || algo == CollAlgo::ReduceBcast ||
                  algo == CollAlgo::RecursiveDoubling ||
                  algo == CollAlgo::Rabenseifner,
              "allreduce: not an allreduce algorithm");
  const int n = comm.size();
  const bool pow2 = (n & (n - 1)) == 0;
  if (algo == CollAlgo::Auto) {
    if (!pow2) {
      algo = CollAlgo::ReduceBcast;
    } else {
      // Long vectors: Rabenseifner moves ~2x the data of one phase instead
      // of log(n) full-vector exchanges; short vectors: RD's single phase
      // of latency wins.  Rabenseifner needs the vector to split evenly.
      algo = in.size_bytes() >= 64 * 1024 && n >= 4 &&
                     in.size() % static_cast<std::size_t>(n) == 0
                 ? CollAlgo::Rabenseifner
                 : CollAlgo::RecursiveDoubling;
    }
  }

  if (algo == CollAlgo::Rabenseifner) {
    DEEP_EXPECT(pow2, "allreduce: Rabenseifner needs a power-of-2 communicator");
    DEEP_EXPECT(in.size() % static_cast<std::size_t>(n) == 0,
                "allreduce: Rabenseifner needs size() to divide the vector "
                "(pad or use another algorithm)");
    if (n == 1) {
      std::copy(in.begin(), in.end(), out.begin());
      return;
    }
    const Tag tag = coll_tags(comm);
    const ContextId ctx = comm.state()->ctx_coll;
    // Phase 1: recursive-halving reduce-scatter.  After round k each rank
    // holds the combined partial for a vector section of size size/2^(k+1).
    std::vector<T> acc(in.begin(), in.end());
    std::vector<T> tmp(in.size());
    std::size_t lo = 0, hi = in.size();  // my live section [lo, hi)
    int round = 0;
    for (int mask = n / 2; mask >= 1; mask >>= 1, ++round) {
      const Rank partner = comm.rank() ^ mask;
      const std::size_t mid = lo + (hi - lo) / 2;
      // The lower-ranked half keeps [lo, mid), sends [mid, hi); vice versa.
      const bool keep_low = (comm.rank() & mask) == 0;
      const std::size_t send_lo = keep_low ? mid : lo;
      const std::size_t send_hi = keep_low ? hi : mid;
      const std::size_t keep_lo = keep_low ? lo : mid;
      const std::size_t keep_hi = keep_low ? mid : hi;
      auto send_view = std::span<const T>(acc).subspan(send_lo, send_hi - send_lo);
      auto recv_view = std::span<T>(tmp).subspan(keep_lo, keep_hi - keep_lo);
      const RequestPtr reqs[2] = {
          irecv_raw(ctx, partner, tag - round, std::as_writable_bytes(recv_view)),
          isend_raw(comm.addr_of(partner), ctx, comm.rank(), tag - round,
                    std::as_bytes(send_view))};
      wait_all(reqs);
      for (std::size_t i = keep_lo; i < keep_hi; ++i)
        acc[i] = apply_op(op, acc[i], tmp[i]);
      lo = keep_lo;
      hi = keep_hi;
    }
    std::copy(acc.begin() + static_cast<std::ptrdiff_t>(lo),
              acc.begin() + static_cast<std::ptrdiff_t>(hi),
              out.begin() + static_cast<std::ptrdiff_t>(lo));
    // Phase 2: recursive doubling allgather of the reduced sections.
    for (int mask = 1; mask < n; mask <<= 1, ++round) {
      const Rank partner = comm.rank() ^ mask;
      // My section doubles by merging with the partner's adjacent section.
      const std::size_t span_len = hi - lo;
      const bool i_am_low = (comm.rank() & mask) == 0;
      const std::size_t partner_lo = i_am_low ? lo + span_len : lo - span_len;
      auto send_view = std::span<const T>(out).subspan(lo, span_len);
      auto recv_view = std::span<T>(out).subspan(partner_lo, span_len);
      const RequestPtr reqs[2] = {
          irecv_raw(ctx, partner, tag - round, std::as_writable_bytes(recv_view)),
          isend_raw(comm.addr_of(partner), ctx, comm.rank(), tag - round,
                    std::as_bytes(send_view))};
      wait_all(reqs);
      lo = std::min(lo, partner_lo);
      hi = lo + 2 * span_len;
    }
    return;
  }

  if (algo == CollAlgo::RecursiveDoubling) {
    DEEP_EXPECT(pow2,
                "allreduce: RecursiveDoubling needs a power-of-2 communicator");
    const Tag tag = coll_tags(comm);
    const ContextId ctx = comm.state()->ctx_coll;
    std::vector<T> acc(in.begin(), in.end());
    std::vector<T> tmp(in.size());
    int round = 0;
    for (int mask = 1; mask < n; mask <<= 1, ++round) {
      const Rank partner = comm.rank() ^ mask;
      const RequestPtr reqs[2] = {
          irecv_raw(ctx, partner, tag - round,
                    std::as_writable_bytes(std::span<T>(tmp))),
          isend_raw(comm.addr_of(partner), ctx, comm.rank(), tag - round,
                    std::as_bytes(std::span<const T>(acc)))};
      wait_all(reqs);
      combine<T>(op, acc, tmp);
    }
    std::copy(acc.begin(), acc.end(), out.begin());
    return;
  }
  reduce<T>(comm, 0, op, in, out);
  bcast<T>(comm, 0, out);
}

template <typename T>
void Mpi::gather(const Comm& comm, Rank root, std::span<const T> send,
                 std::span<T> recv) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "gather: bad root");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const std::size_t block = send.size();
  if (comm.rank() == root) {
    DEEP_EXPECT(recv.size() == block * static_cast<std::size_t>(n),
                "gather: recv buffer must hold size()*block elements");
    std::vector<RequestPtr> reqs;
    for (Rank r = 0; r < n; ++r) {
      auto slot = recv.subspan(static_cast<std::size_t>(r) * block, block);
      if (r == root) {
        std::copy(send.begin(), send.end(), slot.begin());
      } else {
        reqs.push_back(irecv_raw(ctx, r, tag, std::as_writable_bytes(slot)));
      }
    }
    wait_all(reqs);
  } else {
    wait(isend_raw(comm.addr_of(root), ctx, comm.rank(), tag,
                   std::as_bytes(send)));
  }
}

template <typename T>
void Mpi::scatter(const Comm& comm, Rank root, std::span<const T> send,
                  std::span<T> recv) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "scatter: bad root");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const std::size_t block = recv.size();
  if (comm.rank() == root) {
    DEEP_EXPECT(send.size() == block * static_cast<std::size_t>(n),
                "scatter: send buffer must hold size()*block elements");
    std::vector<RequestPtr> reqs;
    for (Rank r = 0; r < n; ++r) {
      auto slot = send.subspan(static_cast<std::size_t>(r) * block, block);
      if (r == root) {
        std::copy(slot.begin(), slot.end(), recv.begin());
      } else {
        reqs.push_back(
            isend_raw(comm.addr_of(r), ctx, comm.rank(), tag, std::as_bytes(slot)));
      }
    }
    wait_all(reqs);
  } else {
    wait(irecv_raw(ctx, root, tag, std::as_writable_bytes(recv)));
  }
}

template <typename T>
void Mpi::gatherv(const Comm& comm, Rank root, std::span<const T> send,
                  std::span<T> recv, std::span<const int> counts,
                  std::span<const int> displs) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "gatherv: bad root");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  if (comm.rank() == root) {
    DEEP_EXPECT(counts.size() == static_cast<std::size_t>(n) &&
                    displs.size() == static_cast<std::size_t>(n),
                "gatherv: counts/displs must have size() entries");
    std::vector<RequestPtr> reqs;
    for (Rank r = 0; r < n; ++r) {
      const auto count = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      const auto displ = static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]);
      DEEP_EXPECT(displ + count <= recv.size(), "gatherv: recv overflow");
      auto slot = recv.subspan(displ, count);
      if (r == root) {
        DEEP_EXPECT(send.size() == count, "gatherv: root count mismatch");
        std::copy(send.begin(), send.end(), slot.begin());
      } else {
        reqs.push_back(irecv_raw(ctx, r, tag, std::as_writable_bytes(slot)));
      }
    }
    wait_all(reqs);
  } else {
    wait(isend_raw(comm.addr_of(root), ctx, comm.rank(), tag,
                   std::as_bytes(send)));
  }
}

template <typename T>
void Mpi::scatterv(const Comm& comm, Rank root, std::span<const T> send,
                   std::span<const int> counts, std::span<const int> displs,
                   std::span<T> recv) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "scatterv: bad root");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  if (comm.rank() == root) {
    DEEP_EXPECT(counts.size() == static_cast<std::size_t>(n) &&
                    displs.size() == static_cast<std::size_t>(n),
                "scatterv: counts/displs must have size() entries");
    std::vector<RequestPtr> reqs;
    for (Rank r = 0; r < n; ++r) {
      const auto count = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      const auto displ = static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]);
      DEEP_EXPECT(displ + count <= send.size(), "scatterv: send overflow");
      auto slot = send.subspan(displ, count);
      if (r == root) {
        DEEP_EXPECT(recv.size() == count, "scatterv: root count mismatch");
        std::copy(slot.begin(), slot.end(), recv.begin());
      } else {
        reqs.push_back(isend_raw(comm.addr_of(r), ctx, comm.rank(), tag,
                                 std::as_bytes(slot)));
      }
    }
    wait_all(reqs);
  } else {
    wait(irecv_raw(ctx, root, tag, std::as_writable_bytes(recv)));
  }
}

template <typename T>
void Mpi::allgather(const Comm& comm, std::span<const T> send,
                    std::span<T> recv) {
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const std::size_t block = send.size();
  DEEP_EXPECT(recv.size() == block * static_cast<std::size_t>(n),
              "allgather: recv buffer must hold size()*block elements");
  const Rank me = comm.rank();
  // Pipelined ring: step k forwards the block originating at (me - k).
  // All receives are pre-posted so the rendezvous handshake is off the
  // critical path and blocks flow back-to-back on every link.
  std::copy(send.begin(), send.end(),
            recv.subspan(static_cast<std::size_t>(me) * block, block).begin());
  const Rank right = (me + 1) % n;
  const Rank left = (me - 1 + n) % n;
  if (n == 1) return;
  std::vector<RequestPtr> recvs;
  recvs.reserve(static_cast<std::size_t>(n - 1));
  for (int k = 0; k < n - 1; ++k) {
    const Rank recv_origin = (me - k - 1 + n) % n;
    auto rblk = recv.subspan(static_cast<std::size_t>(recv_origin) * block, block);
    recvs.push_back(irecv_raw(ctx, left, tag - k - 1, std::as_writable_bytes(rblk)));
  }
  // Requests are released as soon as they are finished with: a waited
  // receive is done and has raised any error it had, and an eager send is
  // done with success at injection, so waiting on either again would change
  // nothing.  Only the last receive and unfinished sends are waited below.
  std::vector<RequestPtr> sends;
  for (int k = 0; k < n - 1; ++k) {
    if (k > 0) {  // data for this step
      RequestPtr& prev = recvs[static_cast<std::size_t>(k - 1)];
      wait(prev);
      prev.reset();
    }
    const Rank send_origin = (me - k + n) % n;
    auto sblk = recv.subspan(static_cast<std::size_t>(send_origin) * block, block);
    RequestPtr send = isend_raw(comm.addr_of(right), ctx, me, tag - k - 1,
                                std::as_bytes(std::span<const T>(sblk)));
    if (!send->done || send->error != ErrCode::Success)
      sends.push_back(std::move(send));
  }
  wait(recvs.back());
  wait_all(sends);
}

template <typename T>
void Mpi::alltoall(const Comm& comm, std::span<const T> send,
                   std::span<T> recv) {
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  DEEP_EXPECT(send.size() == recv.size() && send.size() % n == 0,
              "alltoall: buffers must hold size() blocks");
  const std::size_t block = send.size() / static_cast<std::size_t>(n);
  const Rank me = comm.rank();
  // Local block.
  std::copy_n(send.begin() + static_cast<std::ptrdiff_t>(me * block), block,
              recv.begin() + static_cast<std::ptrdiff_t>(me * block));
  // Pairwise exchange rounds.
  for (int k = 1; k < n; ++k) {
    const Rank dst = (me + k) % n;
    const Rank src = (me - k + n) % n;
    auto sblk = send.subspan(static_cast<std::size_t>(dst) * block, block);
    auto rblk = recv.subspan(static_cast<std::size_t>(src) * block, block);
    const RequestPtr reqs[2] = {
        irecv_raw(ctx, src, tag - k, std::as_writable_bytes(rblk)),
        isend_raw(comm.addr_of(dst), ctx, me, tag - k, std::as_bytes(sblk))};
    wait_all(reqs);
  }
}

template <typename T>
void Mpi::alltoallv(const Comm& comm, std::span<const T> send,
                    std::span<const int> scounts, std::span<const int> sdispls,
                    std::span<T> recv, std::span<const int> rcounts,
                    std::span<const int> rdispls) {
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  DEEP_EXPECT(scounts.size() == static_cast<std::size_t>(n) &&
                  sdispls.size() == static_cast<std::size_t>(n) &&
                  rcounts.size() == static_cast<std::size_t>(n) &&
                  rdispls.size() == static_cast<std::size_t>(n),
              "alltoallv: counts/displs must have size() entries");
  const Rank me = comm.rank();
  const auto sblk = [&](Rank d) {
    const auto c = static_cast<std::size_t>(scounts[static_cast<std::size_t>(d)]);
    const auto o = static_cast<std::size_t>(sdispls[static_cast<std::size_t>(d)]);
    DEEP_EXPECT(o + c <= send.size(), "alltoallv: send overflow");
    return send.subspan(o, c);
  };
  const auto rblk = [&](Rank s) {
    const auto c = static_cast<std::size_t>(rcounts[static_cast<std::size_t>(s)]);
    const auto o = static_cast<std::size_t>(rdispls[static_cast<std::size_t>(s)]);
    DEEP_EXPECT(o + c <= recv.size(), "alltoallv: recv overflow");
    return recv.subspan(o, c);
  };
  // Local block.
  {
    auto src = sblk(me);
    auto dst = rblk(me);
    DEEP_EXPECT(src.size() == dst.size(), "alltoallv: self block mismatch");
    std::copy(src.begin(), src.end(), dst.begin());
  }
  // Pairwise exchange rounds (deadlock-free, like alltoall).
  for (int k = 1; k < n; ++k) {
    const Rank dst = (me + k) % n;
    const Rank src = (me - k + n) % n;
    const RequestPtr reqs[2] = {
        irecv_raw(ctx, src, tag - k, std::as_writable_bytes(rblk(src))),
        isend_raw(comm.addr_of(dst), ctx, me, tag - k, std::as_bytes(sblk(dst)))};
    wait_all(reqs);
  }
}

template <typename T>
void Mpi::scan(const Comm& comm, Op op, std::span<const T> in,
               std::span<T> out) {
  DEEP_EXPECT(out.size() == in.size(), "scan: size mismatch");
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const Rank me = comm.rank();
  std::vector<T> acc(in.begin(), in.end());
  if (me > 0) {
    std::vector<T> prev(in.size());
    wait(irecv_raw(ctx, me - 1, tag, std::as_writable_bytes(std::span<T>(prev))));
    // Inclusive scan: result = prefix(me-1) op in(me).
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] = apply_op(op, prev[i], acc[i]);
  }
  if (me + 1 < n) {
    wait(isend_raw(comm.addr_of(me + 1), ctx, me, tag,
                   std::as_bytes(std::span<const T>(acc))));
  }
  std::copy(acc.begin(), acc.end(), out.begin());
}

}  // namespace deep::mpi
